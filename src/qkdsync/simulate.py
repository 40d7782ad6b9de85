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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    measure_polarization,
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
from .timebase import ClockModel, local_time, reading_time

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


def _surviving_slots(n_slots: int, p: float, gen: np.random.Generator,
                     n_after: int = 0) -> np.ndarray:
    """Sorted indices of a Bernoulli(p) process over range(n_slots),
    followed by n_after entries of -1."""
    chunks = []
    last = -1
    while n_slots > 0 and p > 0 and last < n_slots:
        expect = max((n_slots - last) * p, 1.0)
        k = int(expect + 6.0 * math.sqrt(expect) + 16.0)
        slots = last + np.cumsum(gen.geometric(p, size=k))
        chunks.append(slots)
        last = int(slots[-1])
    if chunks:  # only the last chunk reaches n_slots; strictly increasing
        chunks[-1] = chunks[-1][:np.searchsorted(chunks[-1], n_slots)]
    return np.concatenate(chunks + [np.full(n_after, -1, dtype=np.int64)])


def sample_detections(tx_clock: ClockModel, rx_clock: ClockModel, cfg: dict) -> DetectionSet:
    """Simulated time-tagged detections over cfg's `duration_s` of schedule
    time; cfg, a resolved config, sets every channel and detector value.

    Signal slots survive with probability transmittance x efficiency;
    each survivor is emitted on the transmitter clock, Doppler-shifted
    and delayed, read on the receiver clock, measured, and time-tagged
    together with uniform background/dark events.

    The emit -> arrival -> read chain runs `rng.BLOCK_EVENTS` slots at a
    time; it is elementwise and keyed by slot.  Each block of read-out
    times goes straight to `time_tag`, signals first and then noise, so
    no full-length array of times exists: beside the result the sampler
    holds the slot indices, the detector and origin codes and the ticks.
    """
    seed, duration_s, qubit_rate_hz = cfg["seed"], cfg["duration_s"], cfg["qubit_rate_hz"]
    noise_gen = rng.generator(seed, "noise")
    noise = []  # (times, detector, origin) per detector and noise kind
    for rate, origin in ((cfg["background_rate_hz"], ORIGIN_BACKGROUND),
                         (cfg["dark_rate_hz"], ORIGIN_DARK)):
        if rate <= 0:
            continue
        for det in (H, V, D, A):
            k = int(noise_gen.poisson(rate * duration_s))
            noise.append((noise_gen.random(k) * duration_s, det, origin))

    n_slots = int(math.floor(duration_s * qubit_rate_hz))
    p = cfg["transmittance"] * cfg["detector_efficiency"]
    n_noise = sum(t.size for t, _, _ in noise)
    slot_truth = _surviving_slots(n_slots, p, rng.generator(seed, "signal-thinning"), n_noise)
    n = slot_truth.size
    slots = slot_truth[:n - n_noise]
    dets, orig = np.empty(n, dtype=np.int8), np.full(n, ORIGIN_SIGNAL, dtype=np.int8)
    dets[:slots.size] = measure_polarization(pattern_from_config(cfg).states(slots),
                                             rng.generator(seed, "measurement"))
    lo = slots.size
    for t, det, origin in noise:
        dets[lo:lo + t.size], orig[lo:lo + t.size] = det, origin
        lo += t.size

    def arrival_times():
        for lo in range(0, slots.size, rng.BLOCK_EVENTS):
            block = slots[lo:lo + rng.BLOCK_EVENTS]
            emit = local_time(tx_clock, block / qubit_rate_hz,
                              jitter_index=block, jitter_stream="qubit-emit")
            yield reading_time(
                rx_clock, (emit + cfg["propagation_delay_s"]) * (1.0 + cfg["doppler_beta"]),
                jitter_index=block, jitter_stream="det-read")
        for t, _, _ in noise:
            yield t

    return time_tag(
        arrival_times(),
        dets,
        chain_jitter_sigma_s=cfg["chain_jitter_ps"] * 1e-12,
        tdc_resolution_s=cfg["tdc_resolution_ps"] * 1e-12,
        generator=rng.generator(seed, "chain-jitter"),
        origin=orig,
        slot=slot_truth,
    )


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
    the CDR path is compared against.
    """
    streams = {"cdr": ("sync-read", cfg["cdr_residual_jitter_ps"] * 1e-12),
               "cable": ("cable-read", 0.0)}
    return synthesize_sync_train(
        tx_clock,
        rx_clock,
        cfg["duration_s"],
        cfg["symbol_rate_hz"],
        cfg["sync_divisor"],
        seed=cfg["seed"],
        readouts=tuple(streams[r] for r in readouts),
        propagation_delay_s=cfg["propagation_delay_s"],
        doppler_beta=cfg["doppler_beta"],
        blocks=blocks,
        relock_delay_s=cfg["relock_delay_s"],
    )


def _fold_and_bin(detections, sync: SyncPulseTrain, cfg: dict) -> ArrivalHistogram:
    return fold_histogram(detections, sync, 1.0 / cfg["qubit_rate_hz"], cfg["histogram_bins"])


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


def _arrival_variant(name, detections, sync, cfg) -> ArrivalVariant:
    h = _fold_and_bin(detections, sync, cfg)
    require_peak(h)  # a fold with no peak has no arrival time to compare
    fwhm, resid, ok, mu = fit_or_equivalent(h)
    return ArrivalVariant(name, h, fwhm, mu, resid, ok)


def run_arrival_experiment(cfg: dict, out_dir=None) -> ArrivalResult:
    """Folded arrival peak with CDR sync and with ideal cable sync."""
    tx, rx = build_clocks(cfg)
    det = sample_detections(tx, rx, cfg)
    cdr_sync, cable_sync = make_sync_train(tx, rx, cfg, readouts=("cdr", "cable"))
    cdr = _arrival_variant("cdr", det, cdr_sync, cfg)
    cable = _arrival_variant("cable", det, cable_sync, cfg)
    result = ArrivalResult(cdr, cable, cdr.fwhm_s / cable.fwhm_s, len(det))
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
    """FWHM-vs-N sweep of the same detections at increasing decimation."""
    tx, rx = build_clocks(cfg)
    det = sample_detections(tx, rx, cfg)
    (sync,) = make_sync_train(tx, rx, cfg)
    table = decimation_sweep(det, sync, cfg["n_values"], delta_q_s=1.0 / cfg["qubit_rate_hz"],
                             bin_count=cfg["histogram_bins"])
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
    is folded and fitted once.
    """
    betas = [float(b) for b in cfg["beta_values"]]
    tx, rx = build_clocks(cfg)
    base = {**cfg, "doppler_beta": 0.0}
    (sync0,) = make_sync_train(tx, rx, base)
    fwhm0 = fit_or_equivalent(_fold_and_bin(sample_detections(tx, rx, base), sync0, cfg))[0]

    fwhm, control = np.full(len(betas), fwhm0), np.full(len(betas), fwhm0)
    for i in np.flatnonzero(betas):
        arm = {**cfg, "doppler_beta": betas[i]}
        det = sample_detections(tx, rx, arm)
        (sync,) = make_sync_train(tx, rx, arm)
        fwhm[i] = fit_or_equivalent(_fold_and_bin(det, sync, cfg))[0]
        control[i] = fit_or_equivalent(_fold_and_bin(det, sync0, cfg))[0]
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

    The detections are sampled before the sync train is synthesized (each
    draws from its own keyed streams), and the bin edges are looked up
    without a full-length copy of the times, so the run's traced peak is
    the sampler's sort or the detections plus the train, whichever is
    higher.
    """
    bs, be = cfg["block_start_s"], cfg["block_end_s"]
    blocks = ((bs, be),) if be > bs else ()

    tx, rx = build_clocks(cfg)
    pattern = pattern_from_config(cfg)
    det = sample_detections(tx, rx, cfg)
    (sync,) = make_sync_train(tx, rx, cfg, blocks=blocks)
    dq = 1.0 / cfg["qubit_rate_hz"]
    bin_s = cfg["qber_bin_s"]
    n_bins = int(math.ceil(cfg["duration_s"] / bin_s))
    match_kwargs = dict(qubit_rate_hz=cfg["qubit_rate_hz"], window_s=cfg["match_window_s"])

    bin_edges = np.arange(n_bins + 1) * bin_s
    edges = det.searchsorted(bin_edges)  # detection index at each bin edge
    counts = np.zeros((4, n_bins), dtype=np.int64)  # n_z, e_z, n_x, e_x per bin
    phase_ok = np.zeros(n_bins, dtype=bool)
    phase: PhaseOffset | None = None
    slot_origin: int | None = None
    n_matched = n_unmatched = n_offered = 0
    for b in range(n_bins):
        sub = det.select(slice(edges[b], edges[b + 1]))
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

    series = QberSeries.from_counts(bin_edges[:-1], bin_s, *counts)
    result = BlockingResult(series, bs, be, phase_ok, slot_origin, len(det),
                            n_matched, n_unmatched, len(det) - n_offered)
    if out_dir is not None:
        result.write(out_dir)
    return result
