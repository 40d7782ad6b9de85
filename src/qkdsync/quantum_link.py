"""Qubit states, channel parameters, measurement, and time-tagging.

The source emits one polarization-encoded photon candidate per 20 ns
slot (50 MHz), locked to the same master clock as the classical stream.
The channel thins the train (transmittance x detector efficiency) and
adds background/dark events — both sampled by `simulate.sample_detections`
from the `ChannelParams` defined here; the receiver measures in a random
basis (passive beam-splitter), adds detection-chain jitter, and
time-tags with a TDC on a fixed-resolution grid.

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

MAX_DOPPLER_BETA = 1e-4

# transmitted-state ensemble over (H, V, D)
DEFAULT_STATE_PROBS = (0.25, 0.25, 0.5)


class ChannelConfigError(ValueError):
    """A channel parameter violates its sanity bounds."""


@dataclass(frozen=True)
class ChannelParams:
    """Loss, noise, detector and Doppler parameters of the quantum path."""

    transmittance: float = 1.0
    background_rate_hz: float = 0.0   # per detector
    dark_rate_hz: float = 0.0         # per detector
    detector_efficiency: float = 1.0
    doppler_beta: float = 0.0

    def __post_init__(self):
        if not 0 < self.transmittance <= 1:
            raise ChannelConfigError(f"transmittance must be in (0, 1], got {self.transmittance}")
        if not 0 < self.detector_efficiency <= 1:
            raise ChannelConfigError(
                f"detector_efficiency must be in (0, 1], got {self.detector_efficiency}"
            )
        if self.background_rate_hz < 0 or self.dark_rate_hz < 0:
            raise ChannelConfigError("noise rates must be >= 0")
        if abs(self.doppler_beta) >= MAX_DOPPLER_BETA:
            raise ChannelConfigError(
                f"|doppler_beta| must be < {MAX_DOPPLER_BETA}, got {self.doppler_beta}"
            )


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

    Basis is chosen uniformly (or forced via `basis`: "Z", "X" or an
    array of Z/X codes); within the basis, detector probabilities follow
    the projection of the sent state: same-basis states project onto
    their own detector, the cross-basis state splits 50/50 on a coin.
    Returns detector codes.
    """
    s = np.asarray(state, dtype=np.int8)
    if s.size and (s.min() < H or s.max() > D):
        raise ValueError("sent states must be H, V or D")
    n = s.size
    if basis is None:
        in_z = generator.random(n) < 0.5
    elif isinstance(basis, str):
        if basis not in ("Z", "X"):
            raise ValueError(f"basis must be 'Z', 'X' or None, got {basis!r}")
        in_z = np.full(n, basis == "Z")
    else:
        in_z = np.asarray(basis) == Z
        if in_z.shape != s.shape:
            raise ValueError(f"basis shape {in_z.shape} differs from the states' {s.shape}")
    coin = generator.random(n)
    return _DETECTOR_OF_CELL[6 * in_z.view(np.int8) + 2 * s + (coin < 0.5)]


def detector_basis(detector) -> np.ndarray:
    """Z for the H/V detectors, X for D/A."""
    return (np.asarray(detector) >= D).astype(np.int8)


@dataclass(frozen=True)
class DetectionSet:
    """Time-tagged detections (struct of arrays, sorted by ticks).

    Ticks count TDC bins of tdc_resolution_s seconds.  `origin` and
    `slot` are simulation-only ground truth (noise events carry slot -1);
    `select` strips both, leaving what real hardware would produce.
    """

    ticks: np.ndarray
    detector: np.ndarray
    tdc_resolution_s: float
    origin: np.ndarray | None = None
    slot: np.ndarray | None = None

    def __post_init__(self):
        if not self.tdc_resolution_s > 0:
            raise ValueError(f"TDC resolution must be > 0, got {self.tdc_resolution_s}")
        if np.any(np.asarray(self.ticks) < 0):
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

    No dead time: events closer than one tick may share a tick value.
    """
    if chain_jitter_sigma_s < 0:
        raise ValueError(f"chain_jitter_sigma_s must be >= 0, got {chain_jitter_sigma_s}")
    t = np.asarray(arrival_time_s, dtype=np.float64)
    if chain_jitter_sigma_s > 0:
        t = t + generator.normal(0.0, chain_jitter_sigma_s, t.size)
    keep = t >= 0  # jitter can push the earliest events before the TDC epoch
    t = t[keep]
    det = np.asarray(detector, dtype=np.int8)[keep]
    ticks = quantize(t, tdc_resolution_s)
    order = np.argsort(ticks, kind="stable")
    return DetectionSet(
        ticks=ticks[order],
        detector=det[order],
        tdc_resolution_s=tdc_resolution_s,
        origin=None if origin is None else np.asarray(origin, dtype=np.int8)[keep][order],
        slot=None if slot is None else np.asarray(slot, dtype=np.int64)[keep][order],
    )
