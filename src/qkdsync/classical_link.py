"""Classical 1.25 Gb/s OOK link and receiver-side clock recovery.

The transmitter modulates a PRBS-31 pattern onto an on-off-keyed optical
carrier whose symbol clock is the master clock of the whole source.  The
receiver recovers that symbol clock from the transition timestamps with
a second-order phase-tracking loop (clock-data recovery, CDR) and
divides it down to a low-rate train of synchronization pulses s_i.

Two levels of fidelity coexist here:

* `cdr_track` follows each transition edge individually.  It is the
  honest model and is used for loop-level behavior (lock acquisition,
  frequency transfer, dropout/relock), but walking 1.25e9 symbols per
  second edge-by-edge is infeasible for multi-second runs.
* `synthesize_sync_train` produces only the divided-down pulses (10 kHz
  scale), placing each pulse on the transmitter chain's true symbol
  boundary as read through the receiver clock, plus a configurable
  residual tracking jitter standing in for the CDR loop noise, and
  scales to minutes.  It is meant to match `cdr_track` +
  `derive_sync_pulses` on spans short enough to run both, but no test
  compares the two yet.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .timebase import ClockModel, EdgeTrain, local_time, reading_time

PRBS31_MASK = (1 << 31) - 1

# receiver lock declared when the rolling RMS phase error over this many
# edges drops below this fraction of a symbol period
LOCK_WINDOW_EDGES = 1000
LOCK_RMS_FRACTION = 0.1

# an edge gap longer than this many symbols is treated as signal loss
# (PRBS-31's longest run is 31 identical bits, i.e. a 31-symbol gap)
GAP_UNLOCK_SYMBOLS = 100

SYNC_SPACING_TOLERANCE = 100e-6  # mean pulse spacing sanity bound, relative


class NoLockError(RuntimeError):
    """The clock-recovery loop never reached (or lost) lock where needed."""


@dataclass(frozen=True)
class Prbs31State:
    """31-bit LFSR register; all-zero is the absorbing invalid state."""

    register: int

    def __post_init__(self):
        if not 0 < self.register <= PRBS31_MASK:
            raise ValueError(f"PRBS-31 register must be a nonzero 31-bit value, got {self.register:#x}")


def prbs31_next(state: Prbs31State) -> tuple[int, Prbs31State]:
    """One LFSR step for polynomial x^31 + x^28 + 1.

    The output bit is the freshly computed feedback bit (tap XOR), which
    is also shifted into the register.
    """
    r = state.register
    bit = ((r >> 30) ^ (r >> 27)) & 1
    return bit, Prbs31State(((r << 1) | bit) & PRBS31_MASK)


def prbs31_bits(seed_register: int, count: int) -> np.ndarray:
    """First `count` output bits of the PRBS-31 sequence as a uint8 array.

    The output sequence obeys o[n] = o[n-31] XOR o[n-28] once 31 bits
    exist, which lets everything after the register warm-up be computed
    in vectorized blocks.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    out = np.empty(count, dtype=np.uint8)
    state = Prbs31State(seed_register)
    for i in range(min(31, count)):
        bit, state = prbs31_next(state)
        out[i] = bit
    i = 31
    while i < count:
        j = min(i + 28, count)  # lag-28 values must already exist
        out[i:j] = out[i - 31 : j - 31] ^ out[i - 28 : j - 28]
        i = j
    return out


@dataclass(frozen=True)
class OokStream:
    """Transition timestamps of an on-off-keyed data stream."""

    edges: EdgeTrain
    symbol_rate_hz: float

    def __post_init__(self):
        if not self.symbol_rate_hz > 0:
            raise ValueError("symbol_rate_hz must be > 0")

    def __len__(self) -> int:
        return len(self.edges)


def modulate_ook(bits, tx_clock: ClockModel) -> OokStream:
    """Emit a transition edge wherever consecutive bits differ.

    The laser is dark before the stream, so a leading 1 produces an edge
    at symbol 0.  Edge k sits at the transmitter's local time of its
    symbol boundary, including the clock's per-edge jitter.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.size == 0:
        raise ValueError("cannot modulate an empty bit sequence")
    levels = np.concatenate([[0], bits])
    boundary = np.flatnonzero(levels[1:] != levels[:-1]).astype(np.int64)
    sched = boundary / tx_clock.nominal_frequency_hz
    times = local_time(tx_clock, sched, jitter_index=boundary, jitter_stream="ook-edges")
    return OokStream(EdgeTrain(np.asarray(times), label="ook"), tx_clock.nominal_frequency_hz)


def block_channel(stream: OokStream, t_start: float, t_end: float) -> OokStream:
    """Remove every edge in [t_start, t_end) — an opaque obstruction."""
    if not t_start < t_end:
        raise ValueError(f"blocking interval is inverted: [{t_start}, {t_end})")
    t = stream.edges.times_s
    keep = (t < t_start) | (t >= t_end)
    return OokStream(EdgeTrain(t[keep], label=stream.edges.label), stream.symbol_rate_hz)


@dataclass(frozen=True)
class RecoveredClock:
    """Per-edge state of the clock-recovery loop, in receiver time."""

    edge_time_s: np.ndarray       # observed edge timestamps (receiver clock)
    boundary_phase_s: np.ndarray  # loop estimate of the boundary time at each edge
    boundary_index: np.ndarray    # cumulative symbol-boundary count at each edge
    period_s: np.ndarray          # loop estimate of the symbol period
    locked: np.ndarray
    symbol_period_nominal_s: float
    loop_bandwidth_hz: float

    @property
    def has_lock(self) -> bool:
        return bool(np.any(self.locked))

    @property
    def lock_index(self) -> int:
        """Index of the first locked edge, or -1 if lock was never reached."""
        hits = np.flatnonzero(self.locked)
        return int(hits[0]) if hits.size else -1


def cdr_track(
    stream: OokStream,
    loop_bandwidth_hz: float,
    rx_clock: ClockModel,
    propagation_delay_s: float = 0.0,
) -> RecoveredClock:
    """Second-order PI phase tracking over the received edge timestamps.

    Each edge is compared against the predicted nearest symbol boundary;
    the (sign-folded) phase error drives proportional and integral
    corrections with gains set from the loop bandwidth assuming the
    PRBS mean transition spacing of two symbols.  Lock is declared when
    the rolling RMS phase error over LOCK_WINDOW_EDGES edges falls below
    LOCK_RMS_FRACTION of a symbol period; an edge gap longer than
    GAP_UNLOCK_SYMBOLS drops lock (frequency is retained, phase re-snaps
    on the next edge).

    A stream that never locks yields a RecoveredClock with has_lock
    False; downstream consumers refuse to derive pulses from it.
    """
    t_emit = stream.edges.times_s
    n = t_emit.size
    if n < 2:
        raise ValueError("clock recovery needs at least 2 edges")
    if not 0 < loop_bandwidth_hz < stream.symbol_rate_hz / 10:
        raise ValueError("loop_bandwidth_hz must be positive and well below the symbol rate")

    t_obs = np.asarray(
        reading_time(
            rx_clock,
            t_emit + propagation_delay_s,
            jitter_index=np.arange(n, dtype=np.int64),
            jitter_stream="cdr-edges",
        ),
        dtype=np.float64,
    )

    t_nom = 1.0 / stream.symbol_rate_hz
    # discrete PI gains for a mean update interval of 2 symbols
    zeta = 0.707
    wn_te = 2.0 * np.pi * loop_bandwidth_hz * 2.0 * t_nom
    alpha = 2.0 * zeta * wn_te
    beta = wn_te * wn_te
    t_min, t_max = t_nom * (1.0 - 1e-3), t_nom * (1.0 + 1e-3)

    phase = np.empty(n)
    period = np.empty(n)
    bindex = np.empty(n, dtype=np.int64)
    locked = np.zeros(n, dtype=bool)

    tau = t_obs[0]
    per = t_nom
    b = 0
    w_buf = np.zeros(LOCK_WINDOW_EDGES)
    w_sum = 0.0
    w_n = 0
    w_pos = 0
    thr_sq = (LOCK_RMS_FRACTION * t_nom) ** 2 * LOCK_WINDOW_EDGES

    phase[0] = tau
    period[0] = per
    bindex[0] = 0

    for i in range(1, n):
        t = t_obs[i]
        m = int(round((t - tau) / per))
        if m < 1:
            m = 1
        if m > GAP_UNLOCK_SYMBOLS:
            # dropout: keep the frequency estimate, snap phase, restart lock stats
            tau = t
            b += m
            w_sum = 0.0
            w_n = 0
            w_pos = 0
            w_buf[:] = 0.0
        else:
            e = t - (tau + m * per)
            tau = tau + m * per + alpha * e
            per += beta * e / m
            if per < t_min:
                per = t_min
            elif per > t_max:
                per = t_max
            b += m
            e_sq = e * e
            if w_n < LOCK_WINDOW_EDGES:
                w_n += 1
            else:
                w_sum -= w_buf[w_pos]
            w_buf[w_pos] = e_sq
            w_sum += e_sq
            w_pos = (w_pos + 1) % LOCK_WINDOW_EDGES
            locked[i] = w_n == LOCK_WINDOW_EDGES and w_sum < thr_sq
        phase[i] = tau
        period[i] = per
        bindex[i] = b

    return RecoveredClock(
        edge_time_s=t_obs,
        boundary_phase_s=phase,
        boundary_index=bindex,
        period_s=period,
        locked=locked,
        symbol_period_nominal_s=t_nom,
        loop_bandwidth_hz=loop_bandwidth_hz,
    )


def recovered_fractional_offset(rc: RecoveredClock, skip_fraction: float = 0.25) -> float:
    """Fractional symbol-rate offset seen by the loop, from a linear fit.

    Regresses the tracked boundary phase against boundary index over the
    locked span (discarding the first skip_fraction of locked samples,
    which still carry the acquisition transient).
    """
    idx = np.flatnonzero(rc.locked)
    if idx.size < 100:
        raise NoLockError("not enough locked samples to estimate the frequency offset")
    idx = idx[int(skip_fraction * idx.size):]
    x = rc.boundary_index[idx] * rc.symbol_period_nominal_s
    y = rc.boundary_phase_s[idx]
    slope = np.polyfit(x - x[0], y - y[0], 1)[0]
    return float(slope - 1.0)


@dataclass(frozen=True)
class SyncPulseTrain:
    """Receiver-side timestamps s_i of the divided-down recovered clock.

    nominal_spacing_s is the base (decimation 1) pulse spacing; the
    stored pulses are decimation * nominal_spacing_s apart.  The
    pulse_boundary_index array carries, for each pulse, the absolute
    symbol boundary count it corresponds to (the receiver's own count of
    recovered boundaries), from which slot matching and decimation work;
    locked is False for pulses generated while the recovery loop was
    free-running on the local oscillator.
    """

    pulses: EdgeTrain
    nominal_spacing_s: float
    pulse_boundary_index: np.ndarray
    locked: np.ndarray
    decimation: int = 1

    def __post_init__(self):
        if self.decimation < 1:
            raise ValueError("decimation must be >= 1")
        if not self.nominal_spacing_s > 0:
            raise ValueError("nominal_spacing_s must be > 0")
        n = len(self.pulses)
        if len(self.pulse_boundary_index) != n:
            raise ValueError("pulse_boundary_index length mismatch")
        if len(self.locked) != n:
            raise ValueError("locked length mismatch")
        if n >= 2:
            target = self.decimation * self.nominal_spacing_s
            mean = float(np.mean(np.diff(self.times_s)))
            if abs(mean - target) > SYNC_SPACING_TOLERANCE * target:
                raise ValueError(
                    f"mean sync spacing {mean:g} s deviates from nominal {target:g} s "
                    f"by more than {SYNC_SPACING_TOLERANCE:g} relative"
                )

    @property
    def times_s(self) -> np.ndarray:
        return self.pulses.times_s

    def __len__(self) -> int:
        return len(self.pulses)

    def decimate(self, factor: int) -> "SyncPulseTrain":
        """Keep the pulses whose boundary count is a multiple of factor
        times the boundary step between pulses, widening the effective
        interval factor times."""
        if factor < 1 or len(self) < 2:
            raise ValueError("decimation needs a factor >= 1 and at least 2 pulses")
        if factor == 1:
            return self
        step = int(self.pulse_boundary_index[1] - self.pulse_boundary_index[0])
        keep = self.pulse_boundary_index % (factor * step) == 0
        return SyncPulseTrain(
            pulses=EdgeTrain(self.times_s[keep], label=self.pulses.label),
            nominal_spacing_s=self.nominal_spacing_s,
            pulse_boundary_index=self.pulse_boundary_index[keep],
            locked=self.locked[keep],
            decimation=self.decimation * factor,
        )


def derive_sync_pulses(rc: RecoveredClock, divisor: int) -> SyncPulseTrain:
    """Every divisor-th recovered symbol boundary, as pulses.

    Pulse times are interpolated from the tracked boundary phase and
    period at the nearest preceding edge.  All requested pulses must lie
    in locked spans; asking for pulses where the loop was not locked
    raises NoLockError rather than returning extrapolated guesses.
    """
    if divisor < 1:
        raise ValueError("divisor must be >= 1")
    if not rc.has_lock:
        raise NoLockError("clock recovery never locked; no sync pulses available")
    b_first = int(rc.boundary_index[rc.lock_index])
    b_last = int(rc.boundary_index[-1])
    k_first = -(-b_first // divisor)  # ceil
    k_last = b_last // divisor
    if k_last < k_first:
        raise NoLockError("locked span too short to contain a single sync pulse")
    targets = np.arange(k_first, k_last + 1, dtype=np.int64) * divisor
    j = np.searchsorted(rc.boundary_index, targets, side="right") - 1
    j_next = np.minimum(j + 1, rc.boundary_index.size - 1)
    if not np.all(rc.locked[j] & rc.locked[j_next]):
        raise NoLockError("requested sync pulses fall in an unlocked region")
    times = rc.boundary_phase_s[j] + (targets - rc.boundary_index[j]) * rc.period_s[j]
    return SyncPulseTrain(
        pulses=EdgeTrain(times, label="sync"),
        nominal_spacing_s=divisor * rc.symbol_period_nominal_s,
        pulse_boundary_index=targets,
        locked=np.ones(targets.size, dtype=bool),
    )


def synthesize_sync_train(
    tx_clock: ClockModel,
    rx_clock: ClockModel,
    duration_s: float,
    symbol_rate_hz: float,
    divisor: int,
    *,
    seed: int,
    cdr_residual_sigma_s: float = 90e-12,
    propagation_delay_s: float = 0.0,
    doppler_beta: float = 0.0,
    blocks: tuple = (),
    relock_delay_s: float = 1e-5,
    rx_jitter_stream: str = "sync-read",
) -> SyncPulseTrain:
    """Scenario-scale sync train without per-symbol simulation.

    Each pulse is the transmitter chain's true symbol boundary (every
    divisor symbols) propagated, Doppler-scaled, and read through the
    receiver clock, plus Gaussian residual jitter standing in for the
    CDR tracking noise.  While the channel is blocked (and for
    relock_delay_s after it clears) the receiver free-runs: pulses
    continue at exactly the nominal spacing of its own reading frame,
    extrapolated from the last locked pulse.  Residual jitter is keyed
    by the absolute boundary index, which every pulse carries, so
    `SyncPulseTrain.decimate` keeps each pulse's own timing.
    """
    n_pulses = int(np.floor(duration_s * symbol_rate_hz / divisor))
    if n_pulses < 2:
        raise ValueError("duration too short for two sync pulses")
    boundary = np.arange(n_pulses, dtype=np.int64) * divisor
    sched = boundary / symbol_rate_hz
    emit = np.asarray(
        local_time(tx_clock, sched, jitter_index=boundary, jitter_stream="sync-emit")
    )
    arrival = (emit + propagation_delay_s) * (1.0 + doppler_beta)

    locked = np.ones(n_pulses, dtype=bool)
    for bs, be in blocks:
        if not bs < be:
            raise ValueError(f"blocking interval is inverted: [{bs}, {be})")
        locked &= ~((arrival >= bs) & (arrival < be + relock_delay_s))

    reading = np.asarray(
        reading_time(rx_clock, arrival, jitter_index=boundary, jitter_stream=rx_jitter_stream)
    )
    if cdr_residual_sigma_s > 0:
        key = rng.derive_key(seed, "cdr-residual")
        reading = reading + cdr_residual_sigma_s * rng.normal_at(key, boundary)

    if not locked.all():
        spacing_nom = divisor / symbol_rate_hz
        idx = np.arange(n_pulses, dtype=np.int64)
        anchor = np.maximum.accumulate(np.where(locked, idx, -1))
        free = ~locked
        with_anchor = free & (anchor >= 0)
        reading[with_anchor] = reading[anchor[with_anchor]] + (
            idx[with_anchor] - anchor[with_anchor]
        ) * spacing_nom
        # never locked yet: free-run from the receiver's own time zero
        no_anchor = free & (anchor < 0)
        reading[no_anchor] = idx[no_anchor] * spacing_nom

    return SyncPulseTrain(
        pulses=EdgeTrain(reading, label="sync"),
        nominal_spacing_s=divisor / symbol_rate_hz,
        pulse_boundary_index=boundary,
        locked=locked,
    )
