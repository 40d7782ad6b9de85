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
    compute_qber,
    match_detections,
    recover_phase,
    refine_anchor,
)
from .quantum_link import (
    ChannelParams,
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
    fit_or_equivalent,
    fold,
    histogram,
    rescale,
    decimation_sweep,
    require_peak,
)
from .timebase import ClockModel, local_time, reading_time

MIN_DETECTIONS_PER_FIT = 50


def build_clocks(cfg: dict) -> tuple[ClockModel, ClockModel]:
    """Transmitter and receiver oscillators from a resolved config."""
    span = cfg["duration_s"] + 0.5
    tx = ClockModel(
        nominal_frequency_hz=cfg["symbol_rate_hz"],
        fractional_offset=cfg["tx_fractional_offset"],
        drift_rate_per_s=cfg["tx_drift_per_s"],
        white_jitter_sigma_s=cfg["tx_jitter_ps"] * 1e-12,
        seed=rng.derive_key(cfg["seed"], "tx-clock"),
    )
    rx = ClockModel(
        nominal_frequency_hz=cfg["symbol_rate_hz"],
        fractional_offset=cfg["rx_fractional_offset"],
        drift_rate_per_s=cfg["rx_drift_per_s"],
        white_jitter_sigma_s=cfg["rx_jitter_ps"] * 1e-12,
        seed=rng.derive_key(cfg["seed"], "rx-clock"),
        freq_walk_per_sqrt_s=cfg["rx_freq_walk_per_sqrt_s"],
        walk_span_s=span if cfg["rx_freq_walk_per_sqrt_s"] > 0 else 0.0,
    )
    return tx, rx


def channel_from_config(cfg: dict) -> ChannelParams:
    return ChannelParams(
        transmittance=cfg["transmittance"],
        background_rate_hz=cfg["background_rate_hz"],
        dark_rate_hz=cfg["dark_rate_hz"],
        detector_efficiency=cfg["detector_efficiency"],
        doppler_beta=cfg["doppler_beta"],
    )


def pattern_from_config(cfg: dict) -> QubitPattern:
    probs = (cfg["state_prob_h"], cfg["state_prob_v"], cfg["state_prob_d"])
    return QubitPattern.from_seed(cfg["seed"], probs)


def _surviving_slots(n_slots: int, p: float, gen: np.random.Generator) -> np.ndarray:
    """Sorted indices of a Bernoulli(p) process over range(n_slots)."""
    if n_slots <= 0 or p <= 0:
        return np.empty(0, dtype=np.int64)
    chunks = []
    last = -1
    while last < n_slots:
        expect = max((n_slots - last) * p, 1.0)
        k = int(expect + 6.0 * math.sqrt(expect) + 16.0)
        gaps = gen.geometric(p, size=k).astype(np.int64)
        slots = last + np.cumsum(gaps)
        chunks.append(slots)
        last = int(slots[-1])
    slots = np.concatenate(chunks)
    return slots[slots < n_slots]


def sample_detections(
    tx_clock: ClockModel,
    rx_clock: ClockModel,
    pattern: QubitPattern,
    params: ChannelParams,
    duration_s: float,
    *,
    seed: int,
    qubit_rate_hz: float,
    chain_jitter_sigma_s: float,
    tdc_resolution_s: float,
    propagation_delay_s: float = 0.0,
) -> DetectionSet:
    """Simulated time-tagged detections over `duration_s` of schedule time.

    Signal slots survive with probability transmittance x efficiency;
    each survivor is emitted on the transmitter clock, Doppler-shifted
    and delayed, read on the receiver clock, measured, and time-tagged
    together with uniform background/dark events.
    """
    n_slots = int(math.floor(duration_s * qubit_rate_hz))
    p = params.transmittance * params.detector_efficiency
    slots = _surviving_slots(n_slots, p, rng.generator(seed, "signal-thinning"))

    sched = slots / qubit_rate_hz
    emit = local_time(tx_clock, sched, jitter_index=slots, jitter_stream="qubit-emit")
    arrival = (np.asarray(emit) + propagation_delay_s) * (1.0 + params.doppler_beta)
    read = np.asarray(
        reading_time(rx_clock, arrival, jitter_index=slots, jitter_stream="det-read")
    )
    detector = measure_polarization(pattern.states(slots), rng.generator(seed, "measurement"))

    noise_gen = rng.generator(seed, "noise")
    noise_t, noise_det, noise_orig = [], [], []
    for rate, origin in ((params.background_rate_hz, ORIGIN_BACKGROUND),
                         (params.dark_rate_hz, ORIGIN_DARK)):
        if rate <= 0:
            continue
        for det in (H, V, D, A):
            k = int(noise_gen.poisson(rate * duration_s))
            noise_t.append(noise_gen.random(k) * duration_s)
            noise_det.append(np.full(k, det, dtype=np.int8))
            noise_orig.append(np.full(k, origin, dtype=np.int8))
    if noise_t:
        noise_t = np.concatenate(noise_t)
        noise_det = np.concatenate(noise_det)
        noise_orig = np.concatenate(noise_orig)
    else:
        noise_t = np.empty(0)
        noise_det = np.empty(0, dtype=np.int8)
        noise_orig = np.empty(0, dtype=np.int8)

    times = np.concatenate([read, noise_t])
    dets = np.concatenate([detector, noise_det])
    orig = np.concatenate([np.full(slots.size, ORIGIN_SIGNAL, dtype=np.int8), noise_orig])
    slot_truth = np.concatenate([slots, np.full(noise_t.size, -1, dtype=np.int64)])
    return time_tag(
        times,
        dets,
        chain_jitter_sigma_s=chain_jitter_sigma_s,
        tdc_resolution_s=tdc_resolution_s,
        generator=rng.generator(seed, "chain-jitter"),
        origin=orig,
        slot=slot_truth,
    )


def detections_from_config(tx_clock: ClockModel, rx_clock: ClockModel,
                           cfg: dict) -> DetectionSet:
    """`sample_detections` with every channel and detector setting from `cfg`."""
    return sample_detections(
        tx_clock, rx_clock, pattern_from_config(cfg), channel_from_config(cfg),
        cfg["duration_s"],
        seed=cfg["seed"],
        qubit_rate_hz=cfg["qubit_rate_hz"],
        chain_jitter_sigma_s=cfg["chain_jitter_ps"] * 1e-12,
        tdc_resolution_s=cfg["tdc_resolution_ps"] * 1e-12,
        propagation_delay_s=cfg["propagation_delay_s"],
    )


def make_sync_train(
    tx_clock: ClockModel,
    rx_clock: ClockModel,
    cfg: dict,
    *,
    variant: str = "cdr",
    blocks: tuple = (),
    doppler_beta: float | None = None,
) -> SyncPulseTrain:
    """Receiver sync pulses, either CDR-derived or via an ideal cable.

    The cable variant carries the same transmitter pulses with no
    recovery residual — only the receiver TDC's own jitter — and is the
    reference the CDR path is compared against.
    """
    if variant not in ("cdr", "cable"):
        raise ValueError(f"variant must be 'cdr' or 'cable', got {variant!r}")
    return synthesize_sync_train(
        tx_clock,
        rx_clock,
        cfg["duration_s"],
        cfg["symbol_rate_hz"],
        cfg["sync_divisor"],
        seed=cfg["seed"],
        cdr_residual_sigma_s=(cfg["cdr_residual_jitter_ps"] * 1e-12
                              if variant == "cdr" else 0.0),
        propagation_delay_s=cfg["propagation_delay_s"],
        doppler_beta=cfg["doppler_beta"] if doppler_beta is None else doppler_beta,
        blocks=blocks,
        relock_delay_s=cfg["relock_delay_s"],
        rx_jitter_stream="sync-read" if variant == "cdr" else "cable-read",
    )


def _delta_q_s(cfg: dict) -> float:
    return 1.0 / cfg["qubit_rate_hz"]


def _fold_and_bin(detections, sync: SyncPulseTrain, cfg: dict) -> ArrivalHistogram:
    r = rescale(detections.times_s, sync)
    dq = _delta_q_s(cfg)
    return histogram(fold(r, dq), dq / cfg["histogram_bins"])


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
    det = detections_from_config(tx, rx, cfg)
    cdr = _arrival_variant("cdr", det, make_sync_train(tx, rx, cfg, variant="cdr"), cfg)
    cable = _arrival_variant("cable", det, make_sync_train(tx, rx, cfg, variant="cable"), cfg)
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


def run_decimation_experiment(cfg: dict, out_dir=None, n_list=None) -> DecimationResult:
    """FWHM-vs-N sweep of the same detections at increasing decimation."""
    tx, rx = build_clocks(cfg)
    det = detections_from_config(tx, rx, cfg)
    sync = make_sync_train(tx, rx, cfg, variant="cdr")
    table = decimation_sweep(
        det.times_s, sync, cfg["n_values"] if n_list is None else list(n_list),
        delta_q_s=_delta_q_s(cfg),
        bin_count=cfg["histogram_bins"],
    )
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


def run_doppler_check(cfg: dict, out_dir=None, beta_list=None) -> DopplerResult:
    """Folded-peak width vs common Doppler shift, with a one-sided control.

    For each beta the shift is applied to both the classical and the
    quantum stream (the co-propagation case): the rescaling cancels it
    and the width must not move.  The control applies the same beta to
    the quantum stream only, which smears the fold and demonstrates why
    co-propagation matters.
    """
    betas = [float(b) for b in (cfg["beta_values"] if beta_list is None else beta_list)]
    tx, rx = build_clocks(cfg)

    def detections_at(beta: float) -> DetectionSet:
        return detections_from_config(tx, rx, {**cfg, "doppler_beta": beta})

    sync0 = make_sync_train(tx, rx, cfg, variant="cdr", doppler_beta=0.0)
    det0 = detections_at(0.0)
    fwhm0 = fit_or_equivalent(_fold_and_bin(det0, sync0, cfg))[0]

    fwhm = np.empty(len(betas))
    control = np.empty(len(betas))
    for i, beta in enumerate(betas):
        if beta == 0.0:
            det_b = det0
            sync_b = sync0
        else:
            det_b = detections_at(beta)
            sync_b = make_sync_train(tx, rx, cfg, variant="cdr", doppler_beta=beta)
        fwhm[i] = fit_or_equivalent(_fold_and_bin(det_b, sync_b, cfg))[0]
        control[i] = fit_or_equivalent(_fold_and_bin(det_b, sync0, cfg))[0]
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
    n_detections: int

    def write(self, out_dir) -> None:
        self.series.to_csv(f"{out_dir}/qber.csv")


def run_blocking_experiment(cfg: dict, out_dir=None) -> BlockingResult:
    """QBER trace before, during, and after blocking the classical link.

    The receiver fits the folded-arrival phase of each QBER bin from that
    bin's own detections; a bin whose fold is washed out (as it is while
    the sync free-runs during the block) has no phase of its own.  The
    whole-slot anchor is resolved once, on the first bin with a good fit.
    One match then pairs every detection from that bin on, each with its
    own bin's phase or the last good one before it, and `compute_qber`
    bins the pairs.
    """
    bs, be = cfg["block_start_s"], cfg["block_end_s"]
    if not 0.0 <= bs <= be <= cfg["duration_s"]:
        raise ValueError("block interval must satisfy 0 <= start <= end <= duration")
    blocks = ((bs, be),) if be > bs else ()

    tx, rx = build_clocks(cfg)
    pattern = pattern_from_config(cfg)
    sync = make_sync_train(tx, rx, cfg, variant="cdr", blocks=blocks)
    det = detections_from_config(tx, rx, cfg)
    dq = _delta_q_s(cfg)
    bin_s = cfg["qber_bin_s"]
    n_bins = int(math.ceil(cfg["duration_s"] / bin_s))
    match_kwargs = dict(
        qubit_rate_hz=cfg["qubit_rate_hz"],
        symbol_rate_hz=cfg["symbol_rate_hz"],
        window_s=cfg["match_window_s"],
    )

    # detection index at each bin edge
    edges = np.searchsorted(det.times_s, np.arange(n_bins + 1) * bin_s)
    offsets = np.full(n_bins, np.nan)
    phase_ok = np.zeros(n_bins, dtype=bool)
    slot_origin: int | None = None
    for b in range(n_bins):
        sub = det.select(slice(edges[b], edges[b + 1]))
        if len(sub) < MIN_DETECTIONS_PER_FIT:
            continue
        try:
            phase = recover_phase(fold(rescale(sub.times_s, sync), dq), cfg["histogram_bins"])
        except FitError:
            continue  # washed-out fold: the bin keeps the last good phase
        if slot_origin is None:
            slot_origin = refine_anchor(sub, sync, phase, pattern,
                                        search_slots=cfg["anchor_search_slots"],
                                        **match_kwargs)[0].slot_origin
        offsets[b] = phase.offset_s
        phase_ok[b] = True

    good = np.flatnonzero(phase_ok)
    first = int(good[0]) if good.size else n_bins
    last_good = good[np.searchsorted(good, np.arange(first, n_bins), side="right") - 1]
    offset = np.repeat(offsets[last_good], np.diff(edges)[first:])
    # with no good bin the match is empty and its slot origin is moot
    pairs = match_detections(det.select(slice(edges[first], edges[-1])), sync,
                             PhaseOffset(offset, slot_origin or 0), pattern, **match_kwargs)

    series = compute_qber(pairs, cfg["duration_s"], bin_s)
    result = BlockingResult(series, bs, be, phase_ok, slot_origin, len(det))
    if out_dir is not None:
        result.write(out_dir)
    return result
