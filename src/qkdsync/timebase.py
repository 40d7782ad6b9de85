"""Clock models and the common time representation.

All simulation timestamps are float64 seconds on a shared physical time
axis; at the run durations used here (minutes), they resolve well
below 1 ps.

A :class:`ClockModel` is a quadratic warp between an oscillator's own
schedule and physical time:

    t_phys = t_sched * (1 + fractional_offset) + drift_rate * t_sched**2 / 2

`local_time` applies the warp (used when a clock *generates* edges) and
`reading_time` inverts it (used when a clock *timestamps* an external
event).  White Gaussian jitter per edge is added after the deterministic
transform, keyed by edge index so it is reproducible and random access.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import rng

MAX_FRACTIONAL_OFFSET = 1e-3


class ClockConfigError(ValueError):
    """A clock parameter violates its sanity bounds."""


@dataclass(frozen=True)
class ClockModel:
    """Oscillator with frequency offset, drift, white jitter and frequency walk.

    drift_rate_per_s is the fractional frequency change per second; the
    accumulated phase picks up drift_rate * t^2 / 2.  white_jitter_sigma_s
    is the RMS edge jitter in seconds, applied independently per edge.

    freq_walk_per_sqrt_s adds a slow random-walk component to the
    fractional frequency, piecewise constant over walk_grid_s segments
    spanning walk_span_s.  The net frequency offset of the walk over the
    span is removed (it would be degenerate with fractional_offset), so
    the walk models variability *around* the configured offset/drift.
    Default 0 = pure quadratic transform.
    """

    nominal_frequency_hz: float
    fractional_offset: float = 0.0
    drift_rate_per_s: float = 0.0
    white_jitter_sigma_s: float = 0.0
    seed: int = 0
    freq_walk_per_sqrt_s: float = 0.0
    walk_grid_s: float = 1e-4
    walk_span_s: float = 0.0

    def __post_init__(self):
        if not self.nominal_frequency_hz > 0:
            raise ClockConfigError(
                f"nominal_frequency_hz must be > 0, got {self.nominal_frequency_hz}"
            )
        if abs(self.fractional_offset) >= MAX_FRACTIONAL_OFFSET:
            raise ClockConfigError(
                f"|fractional_offset| must be < {MAX_FRACTIONAL_OFFSET}, "
                f"got {self.fractional_offset}"
            )
        if self.white_jitter_sigma_s < 0:
            raise ClockConfigError("white_jitter_sigma_s must be >= 0")
        if self.freq_walk_per_sqrt_s < 0:
            raise ClockConfigError("freq_walk_per_sqrt_s must be >= 0")
        if self.freq_walk_per_sqrt_s > 0 and not self.walk_span_s > 0:
            raise ClockConfigError("walk_span_s must be > 0 when the walk is enabled")
        if self.freq_walk_per_sqrt_s > 0 and not 0 < self.walk_grid_s <= self.walk_span_s:
            raise ClockConfigError("walk_grid_s must be in (0, walk_span_s]")

    @property
    def period_s(self) -> float:
        return 1.0 / self.nominal_frequency_hz

    def _jitter_key(self, stream: str) -> int:
        return rng.derive_key(self.seed, f"clock-jitter:{stream}")


@functools.lru_cache(maxsize=8)
def _walk_table(seed: int, intensity: float, grid_s: float, span_s: float):
    """(node times, phase) of a frequency walk; a few recent walks are cached."""
    n_seg = int(np.ceil(span_s / grid_s)) + 2
    gen = rng.generator(seed, "freq-walk")
    dy = gen.normal(0.0, intensity * np.sqrt(grid_s), n_seg)
    y = np.cumsum(dy)
    nodes_t = np.arange(n_seg + 1) * grid_s
    phase = np.concatenate([[0.0], np.cumsum(y * grid_s)])
    # remove the net slope so the walk carries no average frequency offset
    phase = phase - nodes_t * (phase[-1] - phase[0]) / nodes_t[-1]
    nodes_t.flags.writeable = phase.flags.writeable = False
    return nodes_t, phase


def _walk_phase(clock: ClockModel, t: np.ndarray) -> np.ndarray:
    nodes_t, phase = _walk_table(clock.seed, clock.freq_walk_per_sqrt_s,
                                 clock.walk_grid_s, clock.walk_span_s)
    if np.any(t > nodes_t[-1]):
        raise ValueError(
            f"time {float(np.max(t)):g} s exceeds the clock's walk_span_s "
            f"({clock.walk_span_s:g} s)"
        )
    return np.interp(t, nodes_t, phase)


def local_time(clock: ClockModel, t_sched, jitter_index=None, jitter_stream="default"):
    """Physical time at which the clock realizes schedule time `t_sched`.

    Deterministic offset/drift/walk transform; if `jitter_index` is given
    and the clock has nonzero jitter, adds one Gaussian jitter sample per
    index (jitter_stream namespaces independent jitter draws through the
    same clock).  Accepts scalars or arrays.
    """
    t = np.asarray(t_sched, dtype=np.float64)
    if np.any(t < 0):
        raise ValueError("schedule time must be non-negative")
    out = t * (1.0 + clock.fractional_offset) + 0.5 * clock.drift_rate_per_s * t * t
    if clock.freq_walk_per_sqrt_s > 0:
        out = out + _walk_phase(clock, t)
    if jitter_index is not None and clock.white_jitter_sigma_s > 0:
        out = out + clock.white_jitter_sigma_s * rng.normal_at(
            clock._jitter_key(jitter_stream), jitter_index
        )
    if np.ndim(t_sched) == 0:
        return float(out)
    return out


def reading_time(clock: ClockModel, t_phys, jitter_index=None, jitter_stream="default"):
    """What the clock's own counter shows at physical time `t_phys`.

    Inverse of `local_time` (analytic for the quadratic part, Newton
    refinement when a frequency walk is present); the clock's white
    jitter models its timestamping noise and is added per reading when
    `jitter_index` is given.  An event generated and read by the same
    jitterless clock reads back its schedule time exactly.
    """
    t = np.asarray(t_phys, dtype=np.float64)
    if np.any(t < 0):
        raise ValueError("physical time must be non-negative")
    a = 1.0 + clock.fractional_offset
    d = clock.drift_rate_per_s
    if d == 0.0:
        out = t / a
    else:
        disc = a * a + 2.0 * d * t
        if np.any(disc <= 0):
            raise ValueError("clock transform not invertible over this span")
        out = 2.0 * t / (a + np.sqrt(disc))
    if clock.freq_walk_per_sqrt_s > 0:
        # walk amplitudes are tiny (|X| << 1 ms), so Newton converges fast
        for _ in range(3):
            f = out * a + 0.5 * d * out * out + _walk_phase(clock, out) - t
            out = out - f / (a + d * out)
    if jitter_index is not None and clock.white_jitter_sigma_s > 0:
        out = out + clock.white_jitter_sigma_s * rng.normal_at(
            clock._jitter_key(jitter_stream), jitter_index
        )
    if np.ndim(t_phys) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class EdgeTrain:
    """Strictly increasing timestamps produced by one clock or signal."""

    times_s: np.ndarray
    label: str = "edges"

    def __post_init__(self):
        t = np.asarray(self.times_s, dtype=np.float64)
        object.__setattr__(self, "times_s", t)
        if t.ndim != 1:
            raise ValueError("EdgeTrain times must be one-dimensional")
        if t.size > 1 and not np.all(np.diff(t) > 0):
            raise ValueError(f"EdgeTrain '{self.label}' is not strictly increasing")

    def __len__(self) -> int:
        return int(self.times_s.size)


def quantize(t, resolution_s: float):
    """TDC quantization: tick = floor(t / resolution); error in [0, resolution)."""
    if not resolution_s > 0:
        raise ValueError("resolution must be positive")
    arr = np.asarray(t, dtype=np.float64)
    if np.any(arr < 0):
        raise ValueError("cannot quantize negative times")
    ticks = np.floor(arr / resolution_s).astype(np.int64)
    if np.ndim(t) == 0:
        return int(ticks)
    return ticks
