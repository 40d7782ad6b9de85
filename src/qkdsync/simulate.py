"""End-to-end scenario runners behind the command-line interface.

Each runner takes a flat, fully-resolved config dict (see `config`),
builds the transmitter/receiver clocks and the quantum channel, runs
one experiment, and returns a result object; given an output directory
it also writes the plot-data CSVs.  Everything is deterministic in
(config, seed): the same inputs give byte-identical outputs.

Detections are sampled sparsely: surviving slots are drawn as a
Bernoulli process via geometric gaps, so a 60 s run touches only the
~10^6 detected slots out of 3x10^9 emitted ones.  The per-slot state
and jitter lookups are counter-based, so they equal those of a dense
pass that thins every slot; `tests/dense_reference.py` is that pass and
`tests/test_sampling.py` checks the two against each other.

`detection_stream` hands the detections out in time order, a batch of
`rng.BLOCK_EVENTS` slots at a time, with the bits of one pass over the
whole run, and `sync_windows` the sync trains, a window of pulses for
each span the stream is split into (`split_at`), with the bits of the
whole trains.  The blocking runner matches each QBER bin against its
window and the other runners fold each span against theirs
(`fold_histogram`), so their memory holds the noise and one window of
detections and of pulses, not the run; `sample_detections` and
`make_sync_train` collect the stream and the windows whole.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import rng
from .classical_link import SyncPulseTrain, synthesize_sync_train
from .qkd_analysis import (
    PhaseOffset,
    QberSeries,
    match_detections,
    recover_phase,
    refine_anchor,
    sift,
)
from .quantum_link import (
    DetectionSet,
    QubitPattern,
    detector_codes,
    time_tag,
    ORIGIN_BACKGROUND,
    ORIGIN_DARK,
    ORIGIN_SIGNAL,
    H, V, D, A,
)
from .sync_recovery import (
    ArrivalHistogram,
    FitError,
    SweepTable,
    decimation_sweep,
    fit_or_equivalent,
    fold,
    fold_histogram,
    histogram,
    require_peak,
    rescale,
)
from .timebase import ClockModel, EdgeTrain, local_time, reading_time

MIN_DETECTIONS_PER_FIT = 50


def build_clocks(cfg: dict) -> tuple[ClockModel, ClockModel]:
    """Transmitter and receiver oscillators from a resolved config."""
    # only the receiver's frequency walks, over a table spanning the run plus 0.5 s
    walk = cfg["rx_freq_walk_per_sqrt_s"]
    walk_keys = {"tx": {}, "rx": {"freq_walk_per_sqrt_s": walk,
                                  "walk_span_s": cfg["duration_s"] + 0.5 if walk > 0 else 0.0}}
    return tuple(ClockModel(
        nominal_frequency_hz=cfg["symbol_rate_hz"],
        fractional_offset=cfg[f"{end}_fractional_offset"],
        drift_rate_per_s=cfg[f"{end}_drift_per_s"],
        white_jitter_sigma_s=cfg[f"{end}_jitter_ps"] * 1e-12,
        seed=rng.derive_key(cfg["seed"], f"{end}-clock"),
        **walk_keys[end],
    ) for end in ("tx", "rx"))


def pattern_from_config(cfg: dict) -> QubitPattern:
    probs = (cfg["state_prob_h"], cfg["state_prob_v"], cfg["state_prob_d"])
    return QubitPattern.from_seed(cfg["seed"], probs)


def _signal_slots(n_slots: int, p: float, gen: np.random.Generator):
    """Sorted indices of a Bernoulli(p) process over range(n_slots), in
    batches of at most `rng.BLOCK_EVENTS` (a batch may be empty).

    The gaps are geometric draws of gen; numpy draws them one after
    another whatever the batch size, so any batching gives the same slots.
    """
    last = -1
    while n_slots > 0 and p > 0 and last < n_slots:
        expect = max((n_slots - last) * p, 1.0)
        k = min(int(expect + 6.0 * math.sqrt(expect) + 16.0), rng.BLOCK_EVENTS)
        slots = last + np.cumsum(gen.geometric(p, size=k))
        last = int(slots[-1])
        yield slots[:np.searchsorted(slots, n_slots)]  # only the last batch reaches n_slots


def _truth_slice(det: DetectionSet, index) -> DetectionSet:
    """The detections at index, with their ground truth."""
    return DetectionSet(det.ticks[index], det.detector[index], det.tdc_resolution_s,
                        det.origin[index], det.slot[index])


def _joined(parts, tdc_resolution_s: float) -> DetectionSet:
    """The detections of parts, one after another, in one set."""
    if len(parts) == 1:
        return parts[0]
    ticks, detector, origin, slot = (
        np.concatenate([getattr(d, name) for d in parts] or [np.empty(0, dtype)])
        for name, dtype in (("ticks", np.int64), ("detector", np.int8),
                            ("origin", np.int8), ("slot", np.int64)))
    return DetectionSet(ticks, detector, tdc_resolution_s, origin, slot)


def _merged(first: DetectionSet, second: DetectionSet, dropped: int = 0) -> DetectionSet:
    """Two sets sorted by ticks merged into one, first's detections first
    among equal ticks; either set itself where the other is empty."""
    if not len(second) or not len(first):
        return replace(second if len(second) else first, dropped_before_epoch=dropped)
    at = np.searchsorted(first.ticks, second.ticks, side="right")
    return DetectionSet(np.insert(first.ticks, at, second.ticks),
                        np.insert(first.detector, at, second.detector),
                        first.tdc_resolution_s,
                        np.insert(first.origin, at, second.origin),
                        np.insert(first.slot, at, second.slot), dropped)


def detection_stream(tx_clock: ClockModel, rx_clock: ClockModel, cfg: dict):
    """(events sampled, time-ordered stream of the detections `sample_detections` returns).

    The stream yields `DetectionSet`s with ground truth; joined in order
    they are, array for array, the set `sample_detections` returns, and
    each carries in `dropped_before_epoch` the events dropped at t = 0
    since the one before.  Its memory is one batch of signals, the noise
    and the events not yet released, not the run.

    Noise events are drawn and tagged at once.  Surviving slots follow in
    batches of `rng.BLOCK_EVENTS`: each is measured, run through the emit
    -> arrival -> read chain and tagged, which sorts it.  Every event
    pending from earlier batches, and every noise event, whose tick lies
    below the new batch's first tick (its horizon) is then released, in
    order of (tick, event index), signals in slot order before noise.  A
    batch whose first tick lies below the previous horizon would reorder
    released events and raises ValueError; only chain jitter spanning a
    whole batch (some 100 us at transmittance 1) can cause it, and
    `config` keeps it under a tenth of that.

    Four draws are sequential streams, read at the place a whole-run pass
    reads them: the thinning gaps in order; the measurement draws every
    basis and then every coin, so the coins come from a second generator
    advanced past the n_sig bases; chain jitter draws the signals' normals
    and then the noise's, so the noise is tagged by a generator that has
    drawn n_sig normals.  n_sig comes from a counting pass over the
    thinning stream, which keeps nothing.
    """
    seed, duration_s, qubit_rate_hz = cfg["seed"], cfg["duration_s"], cfg["qubit_rate_hz"]
    sigma_s, tdc_s = cfg["chain_jitter_ps"] * 1e-12, cfg["tdc_resolution_ps"] * 1e-12
    noise_gen = rng.generator(seed, "noise")
    times, dets, origins = [], [], []  # one entry per detector and noise kind
    for rate, origin in ((cfg["background_rate_hz"], ORIGIN_BACKGROUND),
                         (cfg["dark_rate_hz"], ORIGIN_DARK)):
        if rate <= 0:
            continue
        for det in (H, V, D, A):
            k = int(noise_gen.poisson(rate * duration_s))
            times.append(noise_gen.random(k) * duration_s)
            dets.append(np.full(k, det, dtype=np.int8))
            origins.append(np.full(k, origin, dtype=np.int8))

    n_slots = int(math.floor(duration_s * qubit_rate_hz))
    p = cfg["transmittance"] * cfg["detector_efficiency"]
    n_sig = sum(b.size for b in _signal_slots(n_slots, p, rng.generator(seed, "signal-thinning")))
    basis_gen, coin_gen = (rng.generator(seed, "measurement") for _ in range(2))
    coin_gen.bit_generator.advance(n_sig // 4)  # a Philox step gives 4 draws
    coin_gen.random(n_sig % 4)
    signal_jitter, noise_jitter = (rng.generator(seed, "chain-jitter") for _ in range(2))
    if sigma_s > 0:
        for lo in range(0, n_sig, rng.BLOCK_EVENTS):
            noise_jitter.standard_normal(min(rng.BLOCK_EVENTS, n_sig - lo))
    n_noise = sum(t.size for t in times)
    noise = time_tag(np.concatenate(times or [np.empty(0)]),
                     np.concatenate(dets or [np.empty(0, np.int8)]),
                     chain_jitter_sigma_s=sigma_s, tdc_resolution_s=tdc_s,
                     generator=noise_jitter,
                     origin=np.concatenate(origins or [np.empty(0, np.int8)]),
                     slot=np.full(n_noise, -1, dtype=np.int64))
    del times, dets, origins

    def release():
        pattern = pattern_from_config(cfg)
        pending = _truth_slice(noise, slice(0, 0))  # signals not yet released
        dropped, released, horizon = noise.dropped_before_epoch, 0, 0
        for slots in _signal_slots(n_slots, p, rng.generator(seed, "signal-thinning")):
            in_z = basis_gen.random(slots.size) < 0.5
            detector = detector_codes(pattern.states(slots), in_z, coin_gen.random(slots.size))
            emit = local_time(tx_clock, slots / qubit_rate_hz,
                              jitter_index=slots, jitter_stream="qubit-emit")
            read = reading_time(
                rx_clock, (emit + cfg["propagation_delay_s"]) * (1.0 + cfg["doppler_beta"]),
                jitter_index=slots, jitter_stream="det-read")
            batch = time_tag(read, detector, chain_jitter_sigma_s=sigma_s,
                             tdc_resolution_s=tdc_s, generator=signal_jitter,
                             origin=np.full(slots.size, ORIGIN_SIGNAL, dtype=np.int8),
                             slot=slots)
            dropped += batch.dropped_before_epoch
            if not len(batch):
                continue
            if batch.ticks[0] < horizon:
                raise ValueError(
                    f"chain jitter moved a batch of {rng.BLOCK_EVENTS} signals to tick "
                    f"{batch.ticks[0]}, below the previous batch's first tick {horizon}; "
                    "the detections cannot be streamed in time order")
            horizon = int(batch.ticks[0])
            k = int(np.searchsorted(pending.ticks, horizon))
            upto = int(np.searchsorted(noise.ticks, horizon))
            yield _merged(_truth_slice(pending, slice(k)),
                          _truth_slice(noise, slice(released, upto)), dropped)
            pending = _merged(_truth_slice(pending, slice(k, None)), batch)
            dropped, released = 0, upto
        yield _merged(pending, _truth_slice(noise, slice(released, None)), dropped)

    return n_sig + n_noise, release()


def sample_detections(tx_clock: ClockModel, rx_clock: ClockModel, cfg: dict) -> DetectionSet:
    """Simulated time-tagged detections over cfg's `duration_s` of schedule
    time; cfg, a resolved config, sets every channel and detector value.

    Signal slots survive with probability transmittance x efficiency;
    each survivor is emitted on the transmitter clock, Doppler-shifted
    and delayed, read on the receiver clock, measured, and time-tagged
    together with uniform background/dark events.

    The events of `detection_stream` are copied into arrays allocated
    once, so beside the result the sampler holds one batch of the stream.
    """
    n, parts = detection_stream(tx_clock, rx_clock, cfg)
    ticks, slot = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    detector, origin = np.empty(n, dtype=np.int8), np.empty(n, dtype=np.int8)
    lo = dropped = 0
    for part in parts:
        hi = lo + len(part)
        ticks[lo:hi], detector[lo:hi] = part.ticks, part.detector
        origin[lo:hi], slot[lo:hi] = part.origin, part.slot
        lo, dropped = hi, dropped + part.dropped_before_epoch
    return DetectionSet(ticks[:lo], detector[:lo], cfg["tdc_resolution_ps"] * 1e-12,
                        origin[:lo], slot[:lo], dropped)


def split_at(parts, edges_s):
    """Time-ordered detections regrouped at the sorted times edges_s.

    parts yields `DetectionSet`s in time order, at least one, as the
    stream of `detection_stream` does; split_at yields len(edges_s) + 1
    sets: the detections before edges_s[0], those in [edges_s[k],
    edges_s[k + 1]) for each k, and those at or after edges_s[-1].  A
    detection's time is its `times_s`, so each set is the joined parts
    cut where `np.searchsorted` puts the edges in their `times_s`.
    """
    edges_s = np.asarray(edges_s, dtype=np.float64)
    held, k = [], 0  # the pieces of the set being filled, and its index
    for part in parts:
        tdc_s, lo = part.tdc_resolution_s, 0
        if not len(part):
            continue
        for hi in np.searchsorted(part.times_s, edges_s[k:]):
            if hi == len(part):  # later parts may still lie before this edge
                break
            yield _joined(held + [_truth_slice(part, slice(lo, hi))], tdc_s)
            held, lo, k = [], int(hi), k + 1
        held.append(_truth_slice(part, slice(lo, None)))
    for _ in range(k, edges_s.size + 1):
        yield _joined(held, tdc_s)
        held = []


def _pulse_grid(cfg: dict) -> tuple[int, float]:
    """(sync pulses in the run, their nominal spacing in s)."""
    divisor, rate = cfg["sync_divisor"], cfg["symbol_rate_hz"]
    return int(math.floor(cfg["duration_s"] * rate / divisor)), divisor / rate


def _range_pulses() -> int:
    """Pulses synthesized at a time: a pulse's chain holds ~130 bytes of
    temporaries, its place in a window 8 per readout and a lock flag."""
    return max(rng.BLOCK_EVENTS // 8, 1)


def _span_edges(cfg: dict) -> np.ndarray:
    """Edges of spans of one synthesis range's nominal time from t = 0 over
    the run, at which make_sync_train and the fold runners cut."""
    span_s = _range_pulses() * _pulse_grid(cfg)[1]
    return np.arange(1, math.ceil(cfg["duration_s"] / span_s)) * span_s


def sync_windows(tx_clock: ClockModel, rx_clock: ClockModel, cfg: dict, edges_s, *,
                 readouts: tuple = ("cdr",), blocks: tuple = (), pad: int = 1):
    """Windows of the sync trains `make_sync_train` returns, one for each
    set `split_at(parts, edges_s)` cuts the detections into.

    A window is a tuple of `SyncPulseTrain`s, one per readout, whose
    first_pulse places it in the run.  It holds every pulse read (in any
    readout) in its span, plus pad pulses on each side, and at least
    2 * pad pulses (all of them in a shorter run).  So it brackets each
    detection of its span that the whole trains bracket, and so does its
    decimation by any N <= pad.  The spans are cut where the pulses are
    read, not at a nominal pulse index: the pulses drift from nominal
    (4e-5 x t at clock offsets of +-2e-5), so an index cut would drop
    the detections next to an edge.

    The pulses are synthesized once, in order, `rng.BLOCK_EVENTS // 8`
    at a time, each range carrying forward the last locked reading
    before it (`synthesize_sync_train`), so the windows give the bits of
    the whole trains, and the generator holds one window and one range.
    Windows overlap, so pulses that step back fail a window's
    `EdgeTrain` check, as they fail the whole train's.
    """
    streams = {"cdr": ("sync-read", cfg["cdr_residual_jitter_ps"] * 1e-12),
               "cable": ("cable-read", 0.0)}
    synthesize = functools.partial(
        synthesize_sync_train, tx_clock, rx_clock, cfg["duration_s"], cfg["symbol_rate_hz"],
        cfg["sync_divisor"], seed=cfg["seed"], readouts=tuple(streams[r] for r in readouts),
        propagation_delay_s=cfg["propagation_delay_s"], doppler_beta=cfg["doppler_beta"],
        blocks=blocks, relock_delay_s=cfg["relock_delay_s"])
    n, spacing_s = _pulse_grid(cfg)
    step = _range_pulses()
    held = [np.empty(0) for _ in readouts]  # each readout's pulses base, base + 1, ...
    locked = np.empty(0, dtype=bool)
    base = lo = 0  # the first pulse held, and the first of the window being cut
    last_locked = (-1, ())
    for edge in (*np.asarray(edges_s, dtype=np.float64), np.inf):
        while True:  # synthesize until every pulse read before edge, and pad more, is held
            top = base + locked.size
            cut = [base + int(np.searchsorted(h, edge)) for h in held]  # pulses read before edge
            hi = min(max(max(cut) + pad, lo + 2 * pad), n)
            if top >= hi and (top == n or all(h[-1] >= edge for h in held)):
                break
            chunk = synthesize(pulses=range(top, min(top + step, n)), last_locked=last_locked)
            k = np.flatnonzero(chunk[0].locked)
            if k.size:
                last_locked = (top + int(k[-1]), tuple(t.times_s[k[-1]] for t in chunk))
            held = [np.concatenate((h, t.times_s)) for h, t in zip(held, chunk)]
            locked = np.concatenate((locked, chunk[0].locked))
        w = slice(lo - base, hi - base)
        yield tuple(SyncPulseTrain(EdgeTrain(h[w]), spacing_s, lo, cfg["sync_divisor"], locked[w])
                    for h in held)
        lo = max(lo, min(min(cut) - pad, n - 2 * pad))
        held, locked, base = [h[lo - base:] for h in held], locked[lo - base:], lo


def make_sync_train(
    tx_clock: ClockModel,
    rx_clock: ClockModel,
    cfg: dict,
    *,
    readouts: tuple = ("cdr",),
    blocks: tuple = (),
) -> tuple[SyncPulseTrain, ...]:
    """Receiver sync pulses, one train per readout ("cdr" or "cable") of one emission.

    The cable train carries the same transmitter pulses with no recovery
    residual — only the receiver TDC's own jitter — and is the reference
    the CDR path is compared against.  The windows of `sync_windows`
    are copied into trains allocated once, so beside the result this
    holds one window and one range of synthesis.
    """
    n, spacing_s = _pulse_grid(cfg)
    times, locked = [np.empty(n) for _ in readouts], np.empty(n, dtype=bool)
    edges = _span_edges(cfg)
    for window in sync_windows(tx_clock, rx_clock, cfg, edges, readouts=readouts, blocks=blocks):
        w = slice(window[0].first_pulse, window[0].first_pulse + len(window[0]))
        for t, train in zip(times, window):
            t[w] = train.times_s
        locked[w] = window[0].locked
    return tuple(SyncPulseTrain(EdgeTrain(t), spacing_s, 0, cfg["sync_divisor"], locked)
                 for t in times)


def _in_spans(tx_clock: ClockModel, rx_clock: ClockModel, cfg: dict, *train_cfgs, **sync):
    """The fold runners' `fold_histogram` input: for each span of
    `_span_edges`, (its detections at cfg, the windows of the sync trains
    at each of train_cfgs, or at cfg if none, in one tuple)."""
    edges = _span_edges(cfg)
    windows = zip(*(sync_windows(tx_clock, rx_clock, c, edges, **sync)
                    for c in train_cfgs or (cfg,)))
    parts = split_at(detection_stream(tx_clock, rx_clock, cfg)[1], edges)
    return ((part, sum(w, ())) for part, w in zip(parts, windows))


@dataclass(frozen=True)
class ArrivalVariant:
    """One arm of the arrival-time comparison."""

    name: str
    hist: ArrivalHistogram
    fwhm_s: float
    center_s: float
    fit_residual: float
    fit_ok: bool


@dataclass(frozen=True)
class ArrivalResult:
    """CDR-sync vs ideal cable-sync folded arrival peaks, same detections."""

    cdr: ArrivalVariant
    cable: ArrivalVariant
    fwhm_ratio: float
    n_detections: int

    def write(self, out_dir) -> None:
        self.cdr.hist.to_csv(f"{out_dir}/histogram_cdr.csv")
        self.cable.hist.to_csv(f"{out_dir}/histogram_cable.csv")
        with open(f"{out_dir}/summary.csv", "w", newline="") as fh:
            fh.write("variant,fwhm_ps,center_ps,fit_residual,fit_ok\n")
            for v in (self.cdr, self.cable):
                fh.write(
                    f"{v.name},{v.fwhm_s * 1e12:.3f},{v.center_s * 1e12:.3f},"
                    f"{v.fit_residual:.6g},{'true' if v.fit_ok else 'false'}\n"
                )
            fh.write(f"ratio,{self.fwhm_ratio:.6f},,,\n")


def _arrival_variant(name, hist: ArrivalHistogram) -> ArrivalVariant:
    require_peak(hist)  # a fold with no peak has no arrival time to compare
    fwhm, resid, ok, mu = fit_or_equivalent(hist)
    return ArrivalVariant(name, hist, fwhm, mu, resid, ok)


def run_arrival_experiment(cfg: dict, out_dir=None) -> ArrivalResult:
    """Folded arrival peak with CDR sync and with ideal cable sync.

    The detections of each span (`_span_edges`) are folded into both
    trains' counts against the trains' windows over the span, so the run
    holds the noise, one window of the trains and one span of the stream.
    """
    tx, rx = build_clocks(cfg)
    dq, bins = 1.0 / cfg["qubit_rate_hz"], cfg["histogram_bins"]
    hists, n_detections = fold_histogram(_in_spans(tx, rx, cfg, readouts=("cdr", "cable")),
                                         dq, bins)
    cdr, cable = (_arrival_variant(name, h) for name, h in zip(("cdr", "cable"), hists))
    result = ArrivalResult(cdr, cable, cdr.fwhm_s / cable.fwhm_s, n_detections)
    if out_dir is not None:
        result.write(out_dir)
    return result


@dataclass(frozen=True)
class DecimationResult:
    """FWHM vs sync decimation N, plus the first drastic-growth point."""

    table: SweepTable
    growth_n: int | None

    def write(self, out_dir) -> None:
        self.table.to_csv(f"{out_dir}/sweep.csv")
        with open(f"{out_dir}/growth.csv", "w", newline="") as fh:
            fh.write("growth_n\n")
            fh.write(f"{'' if self.growth_n is None else self.growth_n}\n")


def run_decimation_experiment(cfg: dict, out_dir=None) -> DecimationResult:
    """FWHM-vs-N sweep of the same detections at increasing decimation.

    Each span's window of the train holds max(n_values) pulses on each
    side of the span, so its decimation by every N brackets the span.
    """
    tx, rx = build_clocks(cfg)
    spans = _in_spans(tx, rx, cfg, pad=max(cfg["n_values"]))
    table = decimation_sweep(((part, sync) for part, (sync,) in spans), cfg["n_values"],
                             delta_q_s=1.0 / cfg["qubit_rate_hz"], bin_count=cfg["histogram_bins"])
    result = DecimationResult(table, table.growth_point(2.0))
    if out_dir is not None:
        result.write(out_dir)
    return result


@dataclass(frozen=True)
class DopplerResult:
    """Paired (both-stream) and control (quantum-only) Doppler widths."""

    betas: np.ndarray
    fwhm_s: np.ndarray
    control_fwhm_s: np.ndarray
    fwhm_beta0_s: float

    def write(self, out_dir) -> None:
        for fname, fwhm in (("doppler.csv", self.fwhm_s),
                            ("doppler_control.csv", self.control_fwhm_s)):
            with open(f"{out_dir}/{fname}", "w", newline="") as fh:
                fh.write("beta,fwhm_ps,delta_vs_beta0_ps\n")
                for beta, w in zip(self.betas, fwhm):
                    delta = (w - self.fwhm_beta0_s) * 1e12
                    fh.write(f"{beta:.9g},{w * 1e12:.3f},{delta:.3f}\n")


def run_doppler_check(cfg: dict, out_dir=None) -> DopplerResult:
    """Folded-peak width vs common Doppler shift, with a one-sided control.

    For each beta the shift is applied to both the classical and the
    quantum stream (the co-propagation case): the rescaling cancels it
    and the width must not move.  The control applies the same beta to
    the quantum stream only, which smears the fold and demonstrates why
    co-propagation matters.  At beta = 0 both arms are the baseline, which
    is folded and fitted once.  Each arm folds its detections against
    windows of its own train and of the beta = 0 train, synthesized again
    beside it, so the run holds one window of each, not the trains.
    """
    betas = [float(b) for b in cfg["beta_values"]]
    tx, rx = build_clocks(cfg)
    dq, bins = 1.0 / cfg["qubit_rate_hz"], cfg["histogram_bins"]
    base = {**cfg, "doppler_beta": 0.0}
    (h0,), _ = fold_histogram(_in_spans(tx, rx, base), dq, bins)
    fwhm0 = fit_or_equivalent(h0)[0]

    fwhm, control = np.full(len(betas), fwhm0), np.full(len(betas), fwhm0)
    for i in np.flatnonzero(betas):
        arm = {**cfg, "doppler_beta": betas[i]}
        hists, _ = fold_histogram(_in_spans(tx, rx, arm, arm, base), dq, bins)
        fwhm[i], control[i] = (fit_or_equivalent(h)[0] for h in hists)
    result = DopplerResult(np.asarray(betas), fwhm, control, fwhm0)
    if out_dir is not None:
        result.write(out_dir)
    return result


@dataclass(frozen=True)
class BlockingResult:
    """Time-binned QBER across a classical-channel blocking interval."""

    series: QberSeries
    block_start_s: float
    block_end_s: float
    phase_ok: np.ndarray   # a usable phase existed for this bin
    slot_origin: int | None
    n_detections: int     # = n_matched + n_unmatched + n_not_offered
    n_matched: int
    n_unmatched: int
    n_not_offered: int

    def write(self, out_dir) -> None:
        self.series.to_csv(f"{out_dir}/qber.csv")


def run_blocking_experiment(cfg: dict, out_dir=None) -> BlockingResult:
    """QBER trace before, during, and after blocking the classical link.

    One pass over the QBER bins.  The receiver fits the folded-arrival
    phase of each bin from that bin's own detections; a bin whose fold
    is washed out (as it is while the sync free-runs during the block)
    keeps the last good phase.  The whole-slot anchor is resolved once,
    on the first bin with a good fit.  Each bin from then on is matched
    with its one phase, and its sifted pair and error counts give that
    bin's QBER.  Detections before the first bin with a phase or past
    the last bin are counted as never offered to the match.  cfg is
    resolved by `config`, which keeps the block inside the run.

    `detection_stream` is split at the bin edges, and each bin is
    matched against its own window of the sync train (`sync_windows`),
    so the run holds the noise and one bin of detections and of pulses,
    whatever its duration.
    """
    bs, be = cfg["block_start_s"], cfg["block_end_s"]
    blocks = ((bs, be),) if be > bs else ()

    tx, rx = build_clocks(cfg)
    pattern = pattern_from_config(cfg)
    dq = 1.0 / cfg["qubit_rate_hz"]
    bin_s = cfg["qber_bin_s"]
    n_bins = int(math.ceil(cfg["duration_s"] / bin_s))
    match_kwargs = dict(qubit_rate_hz=cfg["qubit_rate_hz"], window_s=cfg["match_window_s"])

    bin_edges = np.arange(n_bins + 1) * bin_s
    bins = zip(split_at(detection_stream(tx, rx, cfg)[1], bin_edges),
               sync_windows(tx, rx, cfg, bin_edges, blocks=blocks))
    n_detections = len(next(bins)[0])  # none: detections start at t = 0
    counts = np.zeros((4, n_bins), dtype=np.int64)  # n_z, e_z, n_x, e_x per bin
    phase_ok = np.zeros(n_bins, dtype=bool)
    phase: PhaseOffset | None = None
    slot_origin: int | None = None
    n_matched = n_unmatched = n_offered = 0
    for b, (sub, (sync,)) in zip(range(n_bins), bins):
        n_detections += len(sub)
        rescaled = None  # the bin's rescale, shared by its fold and its match
        if len(sub) >= MIN_DETECTIONS_PER_FIT:
            rescaled = rescale(sub.times_s, sync)
            try:
                fit = recover_phase(histogram(fold(rescaled.q_prime, dq), dq,
                                              cfg["histogram_bins"]))
            except FitError:
                pass  # washed-out fold: the bin keeps the last good phase
            else:
                if slot_origin is None:  # the first good bin resolves the anchor
                    slot_origin = refine_anchor(sub, sync, fit, pattern,
                                                search_slots=cfg["anchor_search_slots"],
                                                **match_kwargs)[0].slot_origin
                phase = PhaseOffset(fit.offset_s, slot_origin)
                phase_ok[b] = True
        if phase is None:
            continue
        pairs = match_detections(sub, sync, phase, pattern, rescaled=rescaled, **match_kwargs)
        counts[:, b] = [np.count_nonzero(mask) for mask in sift(pairs)]
        n_matched, n_unmatched = n_matched + len(pairs), n_unmatched + pairs.n_unmatched
        n_offered += len(sub)

    # past the last bin: never offered.  Its window synthesizes the last pulses
    n_detections += len(next(bins)[0])
    series = QberSeries.from_counts(bin_edges[:-1], bin_s, *counts)
    result = BlockingResult(series, bs, be, phase_ok, slot_origin, n_detections,
                            n_matched, n_unmatched, n_detections - n_offered)
    if out_dir is not None:
        result.write(out_dir)
    return result
