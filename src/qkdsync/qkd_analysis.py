"""Slot matching and error-rate analysis on top of the recovered sync.

Once the folded arrival peak gives the phase offset (propagation delay
modulo one slot), each detection is assigned to a transmitted slot
index: the sync pulse's symbol-boundary count fixes the slot count at
the interval start, and round((q' - offset)/delta_q) adds the slot
within the interval, half-even on ties.  An anchor scan resolves the
remaining whole-slot ambiguity (delay >= one slot) by minimizing the
fraction of state-incompatible pairs.  Sifting then counts the pairs
and errors in each basis, and `QberSeries.from_counts` turns per-bin
counts into time-binned QBER.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import rng
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
from .sync_recovery import ArrivalHistogram, RescaledArrivals, fit_gaussian, rescale

# fraction of random (wrong-slot) pairs that are state-incompatible for
# the (1/4, 1/4, 1/2) H/V/D ensemble: P(H)P(det V) + P(V)P(det H) + P(D)P(det A)
RANDOM_INCOMPATIBLE_FRACTION = 3.0 / 16.0


class MatchingError(ValueError):
    """Detections cannot be matched to slots with the given inputs."""


@dataclass(frozen=True)
class PhaseOffset:
    """Arrival phase within a slot plus the whole-slot anchor.

    offset_s is the folded-peak center (delay modulo delta_q), one value
    for all the detections it is matched with; slot_origin shifts every
    assigned slot index by a constant to absorb the whole-slot part of
    the delay.
    """

    offset_s: float
    slot_origin: int = 0


def recover_phase(h: ArrivalHistogram) -> PhaseOffset:
    """Phase offset from a Gaussian fit of the folded-arrival histogram.

    Raises FitError when no usable peak exists.
    """
    return PhaseOffset(offset_s=fit_gaussian(h).mu_s)


def _slots_per_step(sync: SyncPulseTrain, qubit_rate_hz: float) -> int:
    """Qubit slots per boundary step, from the train's step spacing.

    The slot grid must repeat with the pulses: one boundary step has to
    hold a whole number of slots (within 1e-6).
    """
    slots_per_step = qubit_rate_hz * sync.step_spacing_s
    k = round(slots_per_step)
    if k < 1 or abs(k - slots_per_step) > 1e-6 * slots_per_step:
        raise MatchingError(
            f"qubit rate {qubit_rate_hz:g} and sync step spacing {sync.step_spacing_s:g} s "
            f"are not commensurate over the sync boundary step of {sync.boundary_step}"
        )
    return k


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
    window_s: float,
    rescaled: RescaledArrivals | None = None,
) -> MatchedPairs:
    """Assign each detection to a transmitted slot and look up its state.

    slot = slot_base(interval) + round_half_even((q' - offset)/delta_q)
    + slot_origin, with delta_q = 1/qubit_rate_hz, one phase.offset_s for
    every detection, and slot_base the interval's first pulse boundary
    count in slots; pairs farther than window_s/2 from the slot center
    are rejected and counted in n_unmatched.  The detections are
    rescaled `rng.BLOCK_EVENTS` at a time (see `rng` on blocks), unless
    the caller passes their `rescale` against sync as `rescaled`, which
    is used whole.
    """
    delta_q = 1.0 / qubit_rate_hz
    if not 0 < window_s <= delta_q:
        raise MatchingError(f"window must be in (0, {delta_q:g}] s, got {window_s:g}")
    if not isinstance(detections, DetectionSet):
        raise TypeError("match_detections needs a DetectionSet")
    per_step = _slots_per_step(sync, qubit_rate_hz)

    n = len(detections)
    slot, src = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    sent = np.empty(n, dtype=np.int8)
    n_matched = n_unmatched = 0
    if rescaled is not None:
        if len(rescaled) + rescaled.dropped_before + rescaled.dropped_after != n:
            raise MatchingError("rescaled arrivals do not cover these detections")
        blocks = ((0, rescaled),)
    else:
        blocks = ((lo, rescale(detections.select(slice(lo, lo + rng.BLOCK_EVENTS)).times_s, sync))
                  for lo in range(0, n, rng.BLOCK_EVENTS))
    for lo, r in blocks:
        k, res = assign_slots(r.q_prime, phase.offset_s, delta_q)
        s = (sync.first_pulse + r.interval_index) * per_step + k + phase.slot_origin
        inside = (np.abs(res) <= window_s / 2.0) & (s >= 0)
        i = r.dropped_before + np.flatnonzero(inside)
        matched = slice(n_matched, n_matched + i.size)
        slot[matched] = s[inside]
        src[matched] = i + lo
        sent[matched] = pattern.states(slot[matched])
        n_unmatched += r.q_prime.size - i.size + r.dropped_before + r.dropped_after
        n_matched = matched.stop

    src = src[:n_matched]
    return MatchedPairs(
        slot=slot[:n_matched],
        detector=detections.detector[src],
        sent=sent[:n_matched],
        source_index=src,
        n_unmatched=n_unmatched,
    )


def _incompatible(sent, detector) -> np.ndarray:
    """Pairs impossible at zero error rate: sent H detected V, sent V
    detected H, and sent D detected A."""
    return ((sent == H) & (detector == V)) \
        | ((sent == V) & (detector == H)) \
        | ((sent == D) & (detector == A))


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
    state-incompatible fraction on a detection sample (the noise floor at
    the right shift, near RANDOM_INCOMPATIBLE_FRACTION at a wrong one),
    and returns the phase with slot_origin set to the minimizing shift.
    A shift moves every slot index by the same constant, so it changes
    only which pairs pass slot >= 0: one match at the largest shift holds
    the pairs of every shift, and all shifts are scored from it, in
    blocks of rows of about 4 x `rng.BLOCK_EVENTS` pattern lookups (see
    `rng` on blocks), so memory stays flat in the search width.
    """
    step = max(len(detections) // sample_size, 1)
    sample = detections.select(slice(None, None, step))
    shifts = np.arange(-search_slots, search_slots + 1, dtype=np.int64)
    widest = replace(phase, slot_origin=phase.slot_origin + search_slots)
    pairs = match_detections(sample, sync, widest, pattern,
                             qubit_rate_hz=qubit_rate_hz, **match_kwargs)
    n_kept, n_bad = np.empty(shifts.size, dtype=np.int64), np.empty(shifts.size, dtype=np.int64)
    # shifts per block, for ~4 x BLOCK_EVENTS lookups: smaller blocks ran slower
    rows = max(4 * rng.BLOCK_EVENTS // max(len(pairs), 1), 1)
    for lo in range(0, shifts.size, rows):
        slot = pairs.slot[None, :] + (shifts[lo:lo + rows] - search_slots)[:, None]
        kept = slot >= 0
        np.maximum(slot, 0, out=slot)  # any slot will do where the pair is not kept
        bad = kept & _incompatible(pattern.states(slot), pairs.detector)
        n_kept[lo:lo + rows] = np.count_nonzero(kept, axis=1)
        n_bad[lo:lo + rows] = np.count_nonzero(bad, axis=1)
    with np.errstate(invalid="ignore"):  # a shift that keeps no pair scores NaN
        scores = n_bad / n_kept
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

    @classmethod
    def from_counts(cls, t_bin_s, bin_width_s: float, n_z, e_z, n_x, e_x) -> "QberSeries":
        """Error rates e/n per bin and basis from sifted and error counts;
        a bin with no sifted pair in a basis gets NaN there."""
        if not bin_width_s > 0:
            raise ValueError("bin width must be positive")
        with np.errstate(invalid="ignore", divide="ignore"):
            qber_z = np.where(n_z > 0, e_z / np.maximum(n_z, 1), np.nan)
            qber_x = np.where(n_x > 0, e_x / np.maximum(n_x, 1), np.nan)
        return cls(t_bin_s, bin_width_s, qber_z, qber_x, n_z, n_x)

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
    basis = detector_basis(pairs.detector)
    z_keep = (basis == Z) & ((pairs.sent == H) | (pairs.sent == V))
    z_err = z_keep & (pairs.detector != pairs.sent)
    x_keep = (basis == X) & (pairs.sent == D)
    x_err = x_keep & (pairs.detector == A)
    return z_keep, z_err, x_keep, x_err
