"""Classical 1.25 Gb/s OOK link and receiver-side clock recovery.

The transmitter modulates a PRBS-31 pattern onto an on-off-keyed optical
carrier whose symbol clock is the master clock of the whole source.  The
receiver recovers that symbol clock from the transition timestamps with
a second-order phase-tracking loop (clock-data recovery, CDR) and
divides it down to a low-rate train of synchronization pulses s_i.

Two levels of fidelity coexist here:

* `cdr_track` follows each transition edge individually.  It is the
  honest model, used for loop-level behavior (lock acquisition,
  frequency transfer, dropout/relock).  It runs as a blocked prefix
  scan at about 3.5 M edges per second on one core.  Like
  `modulate_ook` before it and `recovered_fractional_offset` after it,
  it works one block of edges at a time, so it holds its outputs (33
  bytes per edge) and one block.  The 1.25 Gb/s line makes ~625 M
  edges per second of link, so a few milliseconds of it take about a
  second and some 100 MB; minutes of link remain out of its reach.
* `synthesize_sync_train` produces only the divided-down pulses (10 kHz
  scale), placing each pulse on the transmitter chain's true symbol
  boundary as read through the receiver clock, plus a configurable
  residual tracking jitter standing in for the CDR loop noise.  It
  synthesizes any range of a run's pulses from the last locked reading
  before the range, so a run of any length is synthesized a range at a
  time.  With the residual at zero it matches `cdr_track`
  + `derive_sync_pulses` boundary for boundary, within the pulses' own
  emit and read jitter (tests/test_classical_link.py compares the two
  over 4 M symbols).  One emission gives several readouts, as the CDR
  and the cable sync of the arrival scenario read the same clock edges.
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

# the loop's period estimate is clamped to this relative distance from nominal
PERIOD_CLAMP = 1e-3

# edges per prefix-scan block, and the scan's limits: at most this many
# passes to settle the symbol gaps; no phase error above this fraction of
# a period; no period within this fraction of the clamp.  A block outside
# them runs through the per-edge loop.
SCAN_BLOCK_EDGES = 8192
SCAN_MAX_PASSES = 4
SCAN_MAX_ERROR_FRACTION = 0.4
SCAN_CLAMP_MARGIN = 0.999


class NoLockError(RuntimeError):
    """The clock-recovery loop never reached (or lost) lock where needed."""


def prbs31_bits(seed_register: int, count: int) -> np.ndarray:
    """First `count` output bits of the PRBS-31 sequence as a uint8 array.

    seed_register is the LFSR's initial 31-bit state; all-zero is the
    absorbing invalid state and is rejected.  The output sequence obeys
    o[n] = o[n-31] XOR o[n-28] once 31 bits exist, and so also its
    squares o[n] = o[n-31*2^k] XOR o[n-28*2^k] (over GF(2)), which let
    everything after the register warm-up be computed in vectorized
    blocks of 28*2^k bits, doubling as the output grows.
    """
    if not 0 < seed_register <= PRBS31_MASK:
        raise ValueError(f"PRBS-31 register must be a nonzero 31-bit value, got {seed_register:#x}")
    if count < 0:
        raise ValueError("count must be non-negative")
    out = np.empty(count, dtype=np.uint8)
    r = seed_register
    for i in range(min(31, count)):
        # x^31 + x^28 + 1: the tap XOR is output and shifted in
        bit = ((r >> 30) ^ (r >> 27)) & 1
        r = ((r << 1) | bit) & PRBS31_MASK
        out[i] = bit
    i, k = 31, 0
    while i < count:
        while 62 << k <= i:  # 31*2^(k+1) bits exist: square the recurrence once more
            k += 1
        j = min(i + (28 << k), count)  # the shorter lag's values must already exist
        out[i:j] = out[i - (31 << k) : j - (31 << k)] ^ out[i - (28 << k) : j - (28 << k)]
        i = j
    return out


def modulate_ook(bits, tx_clock: ClockModel) -> EdgeTrain:
    """Emit a transition edge wherever consecutive bits differ.

    The laser is dark before the stream, so a leading 1 produces an edge
    at symbol 0.  Edge k sits at the transmitter's local time of its
    symbol boundary, including the clock's per-edge jitter.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.size == 0:
        raise ValueError("cannot modulate an empty bit sequence")
    boundary = np.flatnonzero(np.diff(bits, prepend=np.uint8(0)))
    times = np.empty(boundary.size)
    for lo in range(0, boundary.size, SCAN_BLOCK_EDGES):
        b = boundary[lo:lo + SCAN_BLOCK_EDGES]
        times[lo:lo + b.size] = local_time(tx_clock, b / tx_clock.nominal_frequency_hz,
                                           jitter_index=b, jitter_stream="ook-edges")
    return EdgeTrain(times)


def block_channel(edges: EdgeTrain, t_start: float, t_end: float) -> EdgeTrain:
    """Remove every edge in [t_start, t_end) — an opaque obstruction."""
    if not t_start < t_end:
        raise ValueError(f"blocking interval is inverted: [{t_start}, {t_end})")
    t = edges.times_s
    return EdgeTrain(t[(t < t_start) | (t >= t_end)])


@dataclass(frozen=True)
class RecoveredClock:
    """Per-edge state of the clock-recovery loop, in receiver time."""

    edge_time_s: np.ndarray       # observed edge timestamps (receiver clock)
    boundary_phase_s: np.ndarray  # loop estimate of the boundary time at each edge
    boundary_index: np.ndarray    # cumulative symbol-boundary count at each edge
    period_s: np.ndarray          # loop estimate of the symbol period
    locked: np.ndarray
    symbol_period_nominal_s: float

    @property
    def lock_index(self) -> int:
        """Index of the first locked edge, or -1 if lock was never reached."""
        first = int(np.argmax(self.locked))
        return first if self.locked[first] else -1


def cdr_track(
    edges: EdgeTrain,
    loop_bandwidth_hz: float,
    rx_clock: ClockModel,
    propagation_delay_s: float = 0.0,
) -> RecoveredClock:
    """Second-order PI phase tracking over the received edge timestamps.

    The loop's reference is the receiver's own oscillator: rx_clock
    reads the edges after propagation_delay_s and sets the nominal
    symbol period.  Each edge is compared against the predicted nearest symbol boundary;
    the (sign-folded) phase error drives proportional and integral
    corrections with gains set from the loop bandwidth assuming the
    PRBS mean transition spacing of two symbols.  Lock is declared when
    the rolling RMS phase error over LOCK_WINDOW_EDGES edges falls below
    LOCK_RMS_FRACTION of a symbol period; an edge gap longer than
    GAP_UNLOCK_SYMBOLS drops lock (frequency is retained, phase re-snaps
    on the next edge).

    Once each edge's symbol gap m is known, the update is an affine map
    of the loop state, so `_scan_block` tracks the edges SCAN_BLOCK_EDGES
    at a time as a prefix scan of those maps.  Each block's edges are
    read, tracked and flagged in turn, so the working memory is a few
    blocks whatever the stream length, beside the outputs' 33 bytes per
    edge (four arrays of 8 bytes and the lock flags).  A block the scan
    cannot reproduce (the period clamp would fire, m does not settle,
    or a phase error comes within reach of half a period, where rounding
    could pick another m) runs whole through the per-edge loop
    `_pi_loop`, from the state the block before it left.  Scan and loop
    agree to rounding: the same boundary counts and lock flags, and
    phases within 0.01 ps on streams near t = 0 (the loop rounds in
    absolute seconds, 0.007 ps per step at 50 s, the scan in offsets
    from the nominal grid).  Lock flags come from a cumulative sum of
    squared phase errors carried from block to block, so a lock window
    may span blocks and the flags have the bits of one pass over the
    stream's phase errors.

    A stream that never locks yields a RecoveredClock with lock_index
    -1; downstream consumers refuse to derive pulses from it.
    """
    t_emit = edges.times_s
    n = t_emit.size
    if n < 2:
        raise ValueError("clock recovery needs at least 2 edges")
    if not 0 < loop_bandwidth_hz < rx_clock.nominal_frequency_hz / 10:
        raise ValueError("loop_bandwidth_hz must be positive and well below the symbol rate")

    def read(lo, hi):
        return reading_time(rx_clock, t_emit[lo:hi] + propagation_delay_s,
                            jitter_index=np.arange(lo, hi, dtype=np.int64),
                            jitter_stream="cdr-edges")

    t_nom = rx_clock.period_s
    alpha, beta = _pi_gains(loop_bandwidth_hz, t_nom)
    thr_sq = (LOCK_RMS_FRACTION * t_nom) ** 2 * LOCK_WINDOW_EDGES

    t_obs = np.empty(n)
    phase = np.empty(n)
    period = np.empty(n)
    bindex = np.empty(n, dtype=np.int64)
    locked = np.empty(n, dtype=bool)
    t_obs[:1] = read(0, 1)
    phase[0], period[0], bindex[0], locked[0] = t_obs[0], t_nom, 0, False
    # carried between blocks: the last LOCK_WINDOW_EDGES + 1 values of the
    # running sum of squared phase errors (0 up to edge 1) and the latest
    # signal loss (edge 0 for the stream start), which restarts the window;
    # edge 0 and signal-loss edges are never locked
    sq_tail, last_reset = np.zeros(LOCK_WINDOW_EDGES + 1), 0

    for lo in range(1, n, SCAN_BLOCK_EDGES):
        hi = min(lo + SCAN_BLOCK_EDGES, n)
        t_obs[lo:hi] = read(lo, hi)
        state = (phase[lo - 1], period[lo - 1], bindex[lo - 1])
        block = _scan_block(t_obs[lo:hi], t_obs[0], t_nom, alpha, beta, *state)
        if block is None:
            block = _pi_loop(t_obs[lo:hi], *state, t_nom, alpha, beta)
        phase[lo:hi], period[lo:hi], bindex[lo:hi], err = block

        # the cumulative sum restarts from the carried value, so it has
        # the bits of one sum over the whole stream
        idx = np.arange(lo, hi)
        reset = np.diff(bindex[lo - 1:hi]) > GAP_UNLOCK_SYMBOLS
        sq_sum = np.concatenate((sq_tail[:-1], np.cumsum(
            np.concatenate((sq_tail[-1:], np.where(reset, 0.0, err * err))))))
        window = sq_sum[LOCK_WINDOW_EDGES + 1:] - sq_sum[1:-LOCK_WINDOW_EDGES]
        latest = np.maximum.accumulate(np.where(reset, idx, last_reset))
        locked[lo:hi] = (idx - latest >= LOCK_WINDOW_EDGES) & (window < thr_sq)
        sq_tail, last_reset = sq_sum[-LOCK_WINDOW_EDGES - 1:], latest[-1]

    return RecoveredClock(
        edge_time_s=t_obs,
        boundary_phase_s=phase,
        boundary_index=bindex,
        period_s=period,
        locked=locked,
        symbol_period_nominal_s=t_nom,
    )


def _pi_gains(loop_bandwidth_hz: float, t_nom: float) -> tuple[float, float]:
    """Discrete PI gains (alpha, beta) for a mean update interval of 2 symbols."""
    zeta = 0.707
    wn_te = 2.0 * np.pi * loop_bandwidth_hz * 2.0 * t_nom
    return 2.0 * zeta * wn_te, wn_te * wn_te


def _pi_loop(t, tau, per, b, t_nom, alpha, beta):
    """The loop stepped edge by edge from state (tau, per, b) over edge times t.

    Returns the boundary phase, period, boundary count and phase error
    after each edge (the error is 0 on a signal-loss edge).  It is the
    reference the scan is tested against and its fallback.
    """
    k = len(t)
    phase, period, err = np.empty(k), np.empty(k), np.zeros(k)
    bindex = np.empty(k, dtype=np.int64)
    t_min = t_nom * (1.0 - PERIOD_CLAMP)
    t_max = t_nom * (1.0 + PERIOD_CLAMP)
    tau, per, b = float(tau), float(per), int(b)
    for i, ti in enumerate(t.tolist()):
        m = max(1, round((ti - tau) / per))
        if m > GAP_UNLOCK_SYMBOLS:
            # dropout: keep the frequency estimate, snap phase
            tau = ti
        else:
            e = ti - (tau + m * per)
            tau = tau + m * per + alpha * e
            per = min(max(per + beta * e / m, t_min), t_max)
            err[i] = e
        b += m
        phase[i], period[i], bindex[i] = tau, per, b
    return phase, period, bindex, err


def _scan_block(t, t0, t_nom, alpha, beta, tau, per, b):
    """`_pi_loop` over one block as a prefix scan, or None where it cannot be.

    The state is kept as offsets from the nominal grid anchored at the
    stream's first edge t0: delta = tau - t0 - B*t_nom, p = per - t_nom,
    with B the boundary count after the edge.  With r = t - t0 - B*t_nom,
    an edge with gap m maps (delta, p) to

        delta' = (1 - alpha) * (delta + m*p) + alpha * r
        p'     = -beta/m * delta + (1 - beta) * p + beta/m * r

    and a signal-loss edge to (r, p).  The gaps start from the edge
    spacing and are recomputed from the scanned state, as the loop
    computes them, until they stop changing.
    """
    u = t - t0
    delta0, p0 = tau - t0 - b * t_nom, per - t_nom
    m = np.maximum(1, np.rint(np.diff(t, prepend=tau) / t_nom)).astype(np.int64)
    for _ in range(SCAN_MAX_PASSES):
        bindex = b + np.cumsum(m)
        b_prev = bindex - m
        delta, p = _affine_scan(m, u - bindex * t_nom, alpha, beta, delta0, p0)
        delta_prev = np.concatenate(([delta0], delta[:-1]))
        p_prev = np.concatenate(([p0], p[:-1]))
        x = (u - b_prev * t_nom - delta_prev) / (t_nom + p_prev)
        m_next = np.maximum(1, np.rint(x)).astype(np.int64)
        if np.array_equal(m_next, m):
            break
        m = m_next
    else:
        return None
    if (np.abs(x - m).max() > SCAN_MAX_ERROR_FRACTION
            or np.abs(p).max() > SCAN_CLAMP_MARGIN * PERIOD_CLAMP * t_nom):
        return None
    err = np.where(m > GAP_UNLOCK_SYMBOLS, 0.0, (x - m) * (t_nom + p_prev))
    return t0 + bindex * t_nom + delta, t_nom + p, bindex, err


def _affine_scan(m, r, alpha, beta, delta0, p0):
    """States after each edge: Hillis-Steele scan of the edges' affine maps.

    Map i is held as the two rows of [[A, b], [0, 0, 1]] in maps[:, :, i];
    the carried-in state is folded into map 0, so the scanned offsets
    are the states themselves.
    """
    gap = m > GAP_UNLOCK_SYMBOLS
    inv_m = np.where(gap, 0.0, 1.0 / m)
    maps = np.empty((2, 3, m.size))
    maps[0, 0] = np.where(gap, 0.0, 1.0 - alpha)
    maps[0, 1] = np.where(gap, 0.0, (1.0 - alpha) * m)
    maps[0, 2] = np.where(gap, r, alpha * r)
    maps[1, 0] = -beta * inv_m
    maps[1, 1] = np.where(gap, 1.0, 1.0 - beta)
    maps[1, 2] = beta * inv_m * r
    maps[:, 2, 0] += maps[:, 0, 0] * delta0 + maps[:, 1, 0] * p0
    maps[:, :2, 0] = 0.0
    d = 1
    while d < m.size:
        # map i <- map i after map i-d, for every i >= d at once
        cur, prev = maps[:, :, d:], maps[:, :, :-d]
        step = cur[:, 0:1] * prev[0] + cur[:, 1:2] * prev[1]
        step[:, 2] += cur[:, 2]
        maps[:, :, d:] = step
        d *= 2
    return maps[0, 2], maps[1, 2]


def recovered_fractional_offset(rc: RecoveredClock) -> float:
    """The fractional symbol-rate offset seen by the loop, from a linear fit.

    Regresses the tracked boundary phase against boundary index over the
    locked span (discarding the first quarter of locked samples, which
    still carry the acquisition transient).  The least-squares slope
    comes from two passes over SCAN_BLOCK_EDGES edges at a time: the
    means, then the sums of centred products.
    """
    n_locked = int(np.count_nonzero(rc.locked))
    if n_locked < 100:
        raise NoLockError("not enough locked samples to estimate the frequency offset")

    def samples():
        skip = n_locked // 4
        for lo in range(0, rc.locked.size, SCAN_BLOCK_EDGES):
            i = lo + np.flatnonzero(rc.locked[lo:lo + SCAN_BLOCK_EDGES])
            i, skip = i[skip:], max(skip - i.size, 0)
            yield rc.boundary_index[i] * rc.symbol_period_nominal_s, rc.boundary_phase_s[i]

    n = n_locked - n_locked // 4
    x_sum = y_sum = sxy = sxx = 0.0
    for x, y in samples():
        x_sum += float(x.sum())
        y_sum += float(y.sum())
    x_mean, y_mean = x_sum / n, y_sum / n
    for x, y in samples():
        x -= x_mean
        sxy += float(x @ (y - y_mean))
        sxx += float(x @ x)
    return sxy / sxx - 1.0


@dataclass(frozen=True)
class SyncPulseTrain:
    """Receiver-side timestamps s_i of the divided-down recovered clock.

    Pulse k sits on symbol boundary (first_pulse + k) * boundary_step of
    the receiver's own count of recovered boundaries, so the pulses lie
    on an evenly spaced boundary grid with no gap; slot matching,
    rescaling and decimation work from that grid.  step_spacing_s is
    the nominal time between adjacent pulses; the pulses may stray from
    it as far as the clocks and the Doppler shift put them, as rescaling
    reads each interval from its own two pulses.  locked is False for
    pulses generated while the recovery loop was free-running on the
    local oscillator.  A train may be a window of a run's pulses, which
    first_pulse places in the run.
    """

    pulses: EdgeTrain
    step_spacing_s: float
    first_pulse: int
    boundary_step: int
    locked: np.ndarray

    def __post_init__(self):
        if not self.step_spacing_s > 0:
            raise ValueError("step_spacing_s must be > 0")
        if self.boundary_step < 1:
            raise ValueError("boundary_step must be >= 1")
        if len(self.locked) != len(self.pulses):
            raise ValueError("locked length mismatch")

    @property
    def times_s(self) -> np.ndarray:
        return self.pulses.times_s

    def __len__(self) -> int:
        return len(self.pulses)

    def decimate(self, factor: int) -> "SyncPulseTrain":
        """Keep the pulses whose boundary count is a multiple of factor
        times the boundary step, widening the step spacing factor times."""
        if factor < 1 or len(self) < 2:
            raise ValueError("decimation needs a factor >= 1 and at least 2 pulses")
        if factor == 1:
            return self
        k0 = -self.first_pulse % factor
        return SyncPulseTrain(
            pulses=EdgeTrain(self.times_s[k0::factor]),
            step_spacing_s=factor * self.step_spacing_s,
            first_pulse=(self.first_pulse + k0) // factor,
            boundary_step=factor * self.boundary_step,
            locked=self.locked[k0::factor],
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
    first = rc.lock_index
    if first < 0:
        raise NoLockError("clock recovery never locked; no sync pulses available")
    b_first = int(rc.boundary_index[first])
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
        pulses=EdgeTrain(times),
        step_spacing_s=divisor * rc.symbol_period_nominal_s,
        first_pulse=k_first,
        boundary_step=divisor,
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
    readouts: tuple = (("sync-read", 90e-12),),
    propagation_delay_s: float = 0.0,
    doppler_beta: float = 0.0,
    blocks: tuple = (),
    relock_delay_s: float = 1e-5,
    pulses: range | None = None,
    last_locked: tuple = (-1, ()),
) -> tuple[SyncPulseTrain, ...]:
    """Scenario-scale sync trains without per-symbol simulation.

    Each pulse is the transmitter chain's true symbol boundary (every
    divisor symbols) propagated, Doppler-scaled, and read through the
    receiver clock, plus Gaussian residual jitter standing in for the
    CDR tracking noise.  Each readout `(rx_jitter_stream,
    cdr_residual_sigma_s)` gives one train of the one emission: the
    emission, its arrival times and its lock flags are shared.  While
    the channel is blocked (and for relock_delay_s after it clears) the
    receiver free-runs: pulses continue at exactly the nominal spacing
    of its own reading frame, extrapolated from the last locked pulse.
    Residual jitter is keyed by the absolute boundary index, which every
    pulse's place on the train's grid gives, so `SyncPulseTrain.decimate`
    keeps each pulse's own timing.

    The trains hold the run's pulses in `pulses` (all of them by
    default), with first_pulse = pulses.start.  A free-running pulse
    extrapolates from the last locked pulse before it among them or,
    failing that, from last_locked: (index of the last locked pulse
    before pulses.start, its reading in each readout), or (-1, ()) if
    none.  So the pulses synthesized in consecutive ranges, each with
    the last locked reading of the ranges before it, are the bits of
    one pass over the run; `simulate.sync_windows` synthesizes a run so,
    holding one range's temporaries (some 130 bytes a pulse) at a time.
    """
    n_pulses = int(np.floor(duration_s * symbol_rate_hz / divisor))
    if n_pulses < 2:
        raise ValueError("duration too short for two sync pulses")
    for bs, be in blocks:
        if not bs < be:
            raise ValueError(f"blocking interval is inverted: [{bs}, {be})")
    pulses = range(n_pulses) if pulses is None else pulses
    spacing_nom = divisor / symbol_rate_hz
    idx = np.arange(pulses.start, pulses.stop, dtype=np.int64)
    b = idx * divisor
    emit = local_time(tx_clock, b / symbol_rate_hz, jitter_index=b, jitter_stream="sync-emit")
    arrival = (emit + propagation_delay_s) * (1.0 + doppler_beta)
    locked = np.ones(idx.size, dtype=bool)
    for bs, be in blocks:
        locked &= ~((arrival >= bs) & (arrival < be + relock_delay_s))
    read = slice(None) if locked.all() else locked  # only locked pulses are read
    if read is locked:  # the free-running ones extrapolate from the last locked pulse
        last, last_read = last_locked
        anchor = np.maximum.accumulate(np.where(locked, idx, last))
        free = ~locked & (anchor >= 0)
        at = anchor[free]
        inside = at >= pulses.start  # anchored in this range, not on last_locked
    key = rng.derive_key(seed, "cdr-residual")
    trains = []
    for r, (stream, sigma_s) in enumerate(readouts):
        reading = np.empty(idx.size)
        reading[read] = reading_time(rx_clock, arrival[read], jitter_index=b[read],
                                     jitter_stream=stream)
        if sigma_s > 0:
            reading[read] += sigma_s * rng.normal_at(key, b[read])
        if read is locked:
            base = reading[np.where(inside, at - pulses.start, 0)]
            if not inside.all():
                base[~inside] = last_read[r]
            reading[free] = base + (idx[free] - at) * spacing_nom
            # never locked yet: free-run from the receiver's own time zero
            reading[anchor < 0] = idx[anchor < 0] * spacing_nom
        trains.append(SyncPulseTrain(pulses=EdgeTrain(reading), step_spacing_s=spacing_nom,
                                     first_pulse=pulses.start, boundary_step=divisor,
                                     locked=locked))
    return tuple(trains)
