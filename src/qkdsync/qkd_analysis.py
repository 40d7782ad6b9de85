"""Slot matching and error-rate analysis on top of the recovered sync.

Once the folded arrival peak gives the phase offset (propagation delay
modulo one slot), each detection is assigned to a transmitted slot
index: the sync pulse's symbol-boundary count fixes the slot count at
the interval start, and round((q' - offset)/delta_q) adds the slot
within the interval, half-even on ties.  An anchor scan resolves the
remaining whole-slot ambiguity (delay >= one slot) by minimizing the
fraction of state-incompatible pairs.  Sifting then yields time-binned
QBER in each basis.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .classical_link import SyncPulseTrain
from .quantum_link import (
    A,
    D,
    H,
    V,
    X,
    Z,
    DetectionSet,
    QubitPattern,
    detector_basis,
)
from .sync_recovery import (
    DEFAULT_BIN_COUNT,
    FoldedArrivals,
    fit_gaussian,
    histogram,
    rescale,
)

# fraction of random (wrong-slot) pairs that are state-incompatible for
# the (1/4, 1/4, 1/2) H/V/D ensemble: P(H)P(det V) + P(V)P(det H) + P(D)P(det A)
RANDOM_INCOMPATIBLE_FRACTION = 3.0 / 16.0


class MatchingError(ValueError):
    """Detections cannot be matched to slots with the given inputs."""


@dataclass(frozen=True)
class PhaseOffset:
    """Arrival phase within a slot plus the whole-slot anchor.

    offset_s is the folded-peak center (delay modulo delta_q), one value
    for all detections or one per detection; slot_origin shifts every
    assigned slot index by a constant to absorb the whole-slot part of
    the delay.  confidence is the fitted peak-to-baseline ratio (higher
    is better, 3 is the fit floor).
    """

    offset_s: float | np.ndarray
    slot_origin: int = 0
    confidence: float = float("inf")


def recover_phase(folded: FoldedArrivals,
                  bin_count: int = DEFAULT_BIN_COUNT) -> PhaseOffset:
    """Phase offset from a Gaussian fit of the folded arrivals.

    Raises FitError when no usable peak exists.
    """
    peak = fit_gaussian(histogram(folded, folded.delta_q_s / bin_count))
    return PhaseOffset(offset_s=peak.mu_s, slot_origin=0,
                       confidence=peak.peak_to_baseline)


def _slots_per_symbol(qubit_rate_hz: float, symbol_rate_hz: float) -> Fraction:
    frac = Fraction(qubit_rate_hz / symbol_rate_hz).limit_denominator(10**9)
    if abs(float(frac) * symbol_rate_hz - qubit_rate_hz) > 1e-6 * qubit_rate_hz:
        raise MatchingError(
            f"qubit rate {qubit_rate_hz:g} and symbol rate {symbol_rate_hz:g} "
            "are not commensurate"
        )
    return frac


def _slot_base(sync: SyncPulseTrain, qubit_rate_hz: float,
               symbol_rate_hz: float) -> np.ndarray:
    """Absolute qubit-slot count at each sync pulse, from its boundary count."""
    frac = _slots_per_symbol(qubit_rate_hz, symbol_rate_hz)
    num = np.asarray(sync.pulse_boundary_index, dtype=np.int64) * frac.numerator
    if np.any(num % frac.denominator):
        raise MatchingError("sync pulse boundaries do not land on qubit slots")
    return num // frac.denominator


def assign_slots(q_prime, offset_s: float, delta_q: float):
    """(k, residual): nearest slot index and distance from its center.

    k = round((q' - offset)/delta_q) with ties rounded half-even, the
    same convention the TDC hardware applies on bin boundaries.
    """
    rel = np.asarray(q_prime, dtype=np.float64) - offset_s
    k = np.rint(rel / delta_q).astype(np.int64)
    return k, rel - k * delta_q


@dataclass(frozen=True)
class MatchedPairs:
    """Detections paired with the transmitted state of their slot."""

    slot: np.ndarray          # absolute transmitted slot index
    detector: np.ndarray      # detector code of the click
    sent: np.ndarray          # transmitted state code looked up per slot
    basis: np.ndarray         # measurement basis implied by the detector
    time_s: np.ndarray        # receiver-side detection time
    residual_s: np.ndarray    # q' distance from the assigned slot center
    source_index: np.ndarray  # index into the input detection set
    n_unmatched: int

    def __len__(self) -> int:
        return int(self.slot.size)


def match_detections(
    detections,
    sync: SyncPulseTrain,
    phase: PhaseOffset,
    pattern: QubitPattern,
    *,
    qubit_rate_hz: float,
    symbol_rate_hz: float,
    window_s: float,
) -> MatchedPairs:
    """Assign each detection to a transmitted slot and look up its state.

    slot = slot_base(interval) + round_half_even((q' - offset)/delta_q)
    + slot_origin, with delta_q = 1/qubit_rate_hz and phase.offset_s one
    value or one per detection; pairs farther than window_s/2 from the
    slot center are rejected and counted in n_unmatched.
    """
    delta_q = 1.0 / qubit_rate_hz
    if not 0 < window_s <= delta_q:
        raise MatchingError(f"window must be in (0, {delta_q:g}] s, got {window_s:g}")
    if not isinstance(detections, DetectionSet):
        raise TypeError("match_detections needs a DetectionSet")
    offset = np.asarray(phase.offset_s, dtype=np.float64)
    if offset.shape not in ((), (len(detections),)):
        raise MatchingError(
            f"need one phase offset or one per detection ({len(detections)}), "
            f"got shape {offset.shape}"
        )
    r = rescale(detections.times_s, sync)
    base = _slot_base(sync, qubit_rate_hz, symbol_rate_hz)

    k, resid = assign_slots(r.q_prime, offset[r.source_index] if offset.ndim else offset,
                            delta_q)
    slot = base[r.interval_index] + k + phase.slot_origin
    inside = (np.abs(resid) <= window_s / 2.0) & (slot >= 0)
    n_unmatched = int(r.q_prime.size - np.count_nonzero(inside)) \
        + r.dropped_before + r.dropped_after

    src = r.source_index[inside]
    slot = slot[inside]
    det = detections.detector[src]
    return MatchedPairs(
        slot=slot,
        detector=det,
        sent=pattern.states(slot),
        basis=detector_basis(det),
        time_s=detections.select(src).times_s,  # only the matched ticks become seconds
        residual_s=resid[inside],
        source_index=src,
        n_unmatched=n_unmatched,
    )


def _incompatible(sent, detector) -> np.ndarray:
    """Pairs impossible at zero error rate: sent H detected V, sent V
    detected H, and sent D detected A."""
    return ((sent == H) & (detector == V)) \
        | ((sent == V) & (detector == H)) \
        | ((sent == D) & (detector == A))


def incompatible_fraction(pairs: MatchedPairs) -> float:
    """Fraction of pairs impossible at zero error rate.

    A correct slot assignment drives this to the noise floor while a
    wrong one sits near 3/16.
    """
    if len(pairs) == 0:
        return float("nan")
    return float(np.count_nonzero(_incompatible(pairs.sent, pairs.detector))) / len(pairs)


@dataclass(frozen=True)
class AnchorScan:
    """Incompatibility versus whole-slot shift; the minimum is the anchor."""

    shifts: np.ndarray
    incompatibility: np.ndarray
    best_shift: int
    margin: float  # separation of the minimum from the runner-up


def refine_anchor(
    detections,
    sync: SyncPulseTrain,
    phase: PhaseOffset,
    pattern: QubitPattern,
    *,
    qubit_rate_hz: float,
    search_slots: int = 50,
    sample_size: int = 4000,
    **match_kwargs,
) -> tuple[PhaseOffset, AnchorScan]:
    """Resolve the whole-slot part of the delay by pattern correlation.

    Scans slot_origin over +-search_slots, scoring each shift by the
    state-incompatible fraction on a detection sample, and returns the
    phase with slot_origin set to the minimizing shift.  A shift moves
    every slot index by the same constant, so it changes only which
    pairs pass slot >= 0: one match at the largest shift holds the pairs
    of every shift, and all shifts are scored from it at once.
    """
    step = max(len(detections) // sample_size, 1)
    sample = detections.select(slice(None, None, step))
    shifts = np.arange(-search_slots, search_slots + 1, dtype=np.int64)
    widest = replace(phase, slot_origin=phase.slot_origin + search_slots)
    pairs = match_detections(sample, sync, widest, pattern,
                             qubit_rate_hz=qubit_rate_hz, **match_kwargs)
    slot = pairs.slot[None, :] + (shifts - search_slots)[:, None]
    kept = slot >= 0
    bad = kept & _incompatible(pattern.states(np.maximum(slot, 0)), pairs.detector)
    with np.errstate(invalid="ignore"):  # a shift that keeps no pair scores NaN
        scores = np.count_nonzero(bad, axis=1) / np.count_nonzero(kept, axis=1)
    if np.all(np.isnan(scores)):
        raise MatchingError("no detections matched at any anchor shift")
    best = int(np.nanargmin(scores))
    others = np.delete(scores, best)
    runner_up = float(np.nanmin(others)) if others.size else float("nan")
    margin = runner_up - float(scores[best])
    refined = replace(phase, slot_origin=phase.slot_origin + int(shifts[best]))
    return refined, AnchorScan(shifts, scores, int(shifts[best]), margin)


@dataclass(frozen=True)
class QberSeries:
    """Time-binned sifted error rates; empty bins carry NaN."""

    t_bin_s: np.ndarray   # bin start times
    bin_width_s: float
    qber_z: np.ndarray
    qber_x: np.ndarray
    n_z: np.ndarray
    n_x: np.ndarray

    def __len__(self) -> int:
        return int(self.t_bin_s.size)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("t_bin_s,qber_z,qber_x,n_z,n_x\n")
            for k in range(len(self)):
                qz = "nan" if np.isnan(self.qber_z[k]) else f"{self.qber_z[k]:.6f}"
                qx = "nan" if np.isnan(self.qber_x[k]) else f"{self.qber_x[k]:.6f}"
                fh.write(
                    f"{self.t_bin_s[k]:.6f},{qz},{qx},"
                    f"{int(self.n_z[k])},{int(self.n_x[k])}\n"
                )


def sift(pairs: MatchedPairs):
    """(z_mask, z_error, x_mask, x_error) sifting masks over the pairs.

    Z keeps sent H/V measured in Z (error: detector != sent state);
    X keeps sent D measured in X (error: detector A).
    """
    z_keep = (pairs.basis == Z) & ((pairs.sent == H) | (pairs.sent == V))
    z_err = z_keep & (pairs.detector != pairs.sent)
    x_keep = (pairs.basis == X) & (pairs.sent == D)
    x_err = x_keep & (pairs.detector == A)
    return z_keep, z_err, x_keep, x_err


def compute_qber(pairs: MatchedPairs, duration_s: float,
                 bin_width_s: float = 1.0) -> QberSeries:
    """Sift the matched pairs and bin error rates over receiver time."""
    if bin_width_s <= 0 or duration_s <= 0:
        raise ValueError("duration and bin width must be positive")
    n_bins = int(np.ceil(duration_s / bin_width_s))
    edges = np.arange(n_bins + 1) * bin_width_s
    z_keep, z_err, x_keep, x_err = sift(pairs)

    def _binned(mask):
        return np.histogram(pairs.time_s[mask], bins=edges)[0]

    n_z = _binned(z_keep)
    e_z = _binned(z_err)
    n_x = _binned(x_keep)
    e_x = _binned(x_err)
    with np.errstate(invalid="ignore", divide="ignore"):
        qber_z = np.where(n_z > 0, e_z / np.maximum(n_z, 1), np.nan)
        qber_x = np.where(n_x > 0, e_x / np.maximum(n_x, 1), np.nan)
    return QberSeries(
        t_bin_s=edges[:-1],
        bin_width_s=bin_width_s,
        qber_z=qber_z,
        qber_x=qber_x,
        n_z=n_z,
        n_x=n_x,
    )
