"""Qubit states, measurement, and time-tagging.

The source emits one polarization-encoded photon candidate per 20 ns
slot (50 MHz), locked to the same master clock as the classical stream.
The channel thins the train (transmittance x detector efficiency) and
adds background/dark events — both sampled by `simulate.detection_stream`
from the loss and noise keys of a resolved config; the receiver measures
in a random basis (passive beam-splitter), adds detection-chain jitter,
and time-tags with a TDC on a fixed-resolution grid.

States are drawn per slot with a counter-based generator keyed from the
scenario seed, so any slot's transmitted state can be recomputed in O(1)
— this is what lets the matching stage and the sparse detection sampler
look up the sent pattern for arbitrary slot indices without
materializing 5e8 emissions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .timebase import quantize

# detector / state channel codes; H and V span the Z basis, D and A the X basis
H, V, D, A = 0, 1, 2, 3
Z, X = 0, 1

# the detector that clicks, by measurement cell 6*(basis is Z) + 2*state +
# (coin < 0.5): in X, H and V split D/A on the coin and D stays D; in Z,
# H and V stay and D splits H/V
_DETECTOR_OF_CELL = np.array([A, D, A, D, D, D,
                              H, H, V, V, V, H], dtype=np.int8)

# origin codes (simulation ground truth)
ORIGIN_SIGNAL, ORIGIN_BACKGROUND, ORIGIN_DARK = 0, 1, 2

# transmitted-state ensemble over (H, V, D)
DEFAULT_STATE_PROBS = (0.25, 0.25, 0.5)


@dataclass(frozen=True)
class QubitPattern:
    """Random access to the transmitted state of any slot index.

    The state of slot k is a deterministic function of (key, k); the
    same key drives detection sampling and post-processing matching.
    """

    key: int
    probabilities: tuple

    @classmethod
    def from_seed(cls, seed: int, probabilities=DEFAULT_STATE_PROBS) -> "QubitPattern":
        p = tuple(float(x) for x in probabilities)
        if len(p) != 3 or any(x < 0 for x in p) or abs(sum(p) - 1.0) > 1e-9:
            raise ValueError(f"state distribution over (H, V, D) must sum to 1, got {p}")
        return cls(rng.derive_key(seed, "qubit-states"), p)

    def states(self, slot_index) -> np.ndarray:
        """Transmitted state codes (H/V/D) for the given slot indices."""
        return rng.choice_at(self.key, slot_index, self.probabilities)


def measure_polarization(state, generator: np.random.Generator, basis=None) -> np.ndarray:
    """Passive-basis polarization measurement of an array of sent state codes.

    Basis is chosen uniformly (or forced via `basis`: "Z" or "X");
    within the basis, detector probabilities follow the projection of
    the sent state: same-basis states project onto their own detector,
    the cross-basis state splits 50/50 on a coin.
    Returns detector codes.
    """
    s = np.asarray(state, dtype=np.int8)
    if s.size and (s.min() < H or s.max() > D):
        raise ValueError("sent states must be H, V or D")
    n = s.size
    if basis is None:
        in_z = generator.random(n) < 0.5
    elif isinstance(basis, str) and basis in ("Z", "X"):
        in_z = np.full(n, basis == "Z")
    else:
        raise ValueError(f"basis must be 'Z', 'X' or None, got {basis!r}")
    return detector_codes(s, in_z, generator.random(n))


def detector_codes(state, in_z, coin) -> np.ndarray:
    """The detector that clicks for each sent state code (H, V or D), measured
    in Z where the bool array in_z holds and in X elsewhere, with a coin in
    [0, 1) per event splitting the cross-basis outcomes."""
    return _DETECTOR_OF_CELL[6 * in_z.view(np.int8) + 2 * np.asarray(state) + (coin < 0.5)]


def detector_basis(detector) -> np.ndarray:
    """Z for the H/V detectors, X for D/A."""
    return (np.asarray(detector) >= D).astype(np.int8)


@dataclass(frozen=True)
class DetectionSet:
    """Time-tagged detections (struct of arrays, sorted by ticks).

    Ticks count TDC bins of tdc_resolution_s seconds.  `origin` and
    `slot` are simulation-only ground truth (noise events carry slot -1),
    as is `dropped_before_epoch`, the count of events the tagger dropped;
    `select` strips all three, leaving what real hardware would produce.
    """

    ticks: np.ndarray
    detector: np.ndarray
    tdc_resolution_s: float
    origin: np.ndarray | None = None
    slot: np.ndarray | None = None
    dropped_before_epoch: int = 0  # events chain jitter moved before t = 0

    def __post_init__(self):
        if not self.tdc_resolution_s > 0:
            raise ValueError(f"TDC resolution must be > 0, got {self.tdc_resolution_s}")
        ticks = np.asarray(self.ticks)
        if ticks.size and ticks.min() < 0:
            raise ValueError("TDC ticks must be non-negative")

    def __len__(self) -> int:
        return int(self.ticks.size)

    @property
    def times_s(self) -> np.ndarray:
        return self.ticks * self.tdc_resolution_s

    def select(self, index) -> "DetectionSet":
        """The detections at index (a slice or an index array), without ground truth."""
        return DetectionSet(ticks=self.ticks[index], detector=self.detector[index],
                            tdc_resolution_s=self.tdc_resolution_s)


def time_tag(
    arrival_time_s,
    detector,
    *,
    chain_jitter_sigma_s: float,
    tdc_resolution_s: float,
    generator: np.random.Generator,
    origin=None,
    slot=None,
) -> DetectionSet:
    """Detection-chain jitter plus TDC quantization, sorted by ticks.

    arrival_time_s is one array of arrival times; detector (and origin
    and slot) hold one value per event, and a length that differs raises
    ValueError.  Jitter is drawn in event order.  Events jittered before
    t = 0 are dropped and counted in `dropped_before_epoch`.

    No dead time: events closer than one tick may share a tick value.
    """
    if chain_jitter_sigma_s < 0:
        raise ValueError(f"chain_jitter_sigma_s must be >= 0, got {chain_jitter_sigma_s}")
    t = np.asarray(arrival_time_s, dtype=np.float64)
    detector = np.asarray(detector, dtype=np.int8)
    for name, truth in (("origin", origin), ("slot", slot)):
        if truth is not None and np.size(truth) != detector.size:
            raise ValueError(f"{np.size(truth)} {name} values for {detector.size} detector codes")
    if t.size != detector.size:
        raise ValueError(f"{t.size} arrival times for {detector.size} detector codes")
    if chain_jitter_sigma_s > 0:
        jit = generator.standard_normal(t.size)
        jit *= chain_jitter_sigma_s
        jit += t  # t + jit, written into the fresh draw
        t = jit
    ticks = quantize(np.maximum(t, 0.0), tdc_resolution_s)
    ticks[t < 0] = -1  # before the TDC epoch: sorts first and is cut off below
    order = np.argsort(ticks, kind="stable")
    ticks.sort(kind="stable")  # the fastest sort here: signals arrive nearly sorted
    dropped = int(np.searchsorted(ticks, 0))
    order = order[dropped:]
    detector = detector[order]
    if origin is not None:
        origin = np.asarray(origin, dtype=np.int8)[order]
    if slot is not None:
        slot = np.asarray(slot, dtype=np.int64)[order]
    return DetectionSet(
        ticks=ticks[dropped:],
        detector=detector,
        tdc_resolution_s=tdc_resolution_s,
        origin=origin,
        slot=slot,
        dropped_before_epoch=dropped,
    )
