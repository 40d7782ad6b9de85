"""Arrival-time reconstruction against the recovered sync pulses.

The receiver only has its own timestamps: detections q and sync pulses
s_i.  Within each sync interval, arrivals are rescaled onto the
transmitter's nominal timeline,

    q' = (q - s_i) / (s_{i+1} - s_i) * delta_s,

which cancels any linear clock error over that interval, then folded
into the nominal qubit slot, a = q' mod delta_q.  The folded
distribution is histogrammed and fitted with a Gaussian; the FWHM of
the fitted peak is the timing figure of merit.  A decimation sweep
repeats the analysis keeping only every N-th sync pulse, widening the
effective interval and exposing nonlinear clock drift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import curve_fit

from .classical_link import SyncPulseTrain
from .quantum_link import DetectionSet

DEFAULT_DELTA_Q_S = 20e-9
DEFAULT_TDC_RESOLUTION_S = 81e-12
# finest bin count that divides the 20 ns slot while staying within one
# TDC tick of 81 ps: 20 ns / 247 = 80.97 ps
DEFAULT_BIN_COUNT = 247

FWHM_SIGMA = 2.0 * np.sqrt(2.0 * np.log(2.0))  # 2.3548...

BIN_DIVISIBILITY_RTOL = 1e-9


class FitError(RuntimeError):
    """The histogram does not support a meaningful Gaussian fit."""


@dataclass(frozen=True)
class RescaledArrivals:
    """Rescaled detection times q' with their sync-interval indices.

    source_index points back into the detection set the values came
    from; detections outside the sync-covered span are dropped and
    counted, Eq.-style rescaling needs bracketing pulses.
    """

    q_prime: np.ndarray
    interval_index: np.ndarray
    source_index: np.ndarray
    delta_s_eff: float
    dropped_before: int
    dropped_after: int

    def __len__(self) -> int:
        return int(self.q_prime.size)


def rescale(detections, sync: SyncPulseTrain,
            tdc_resolution_s: float = DEFAULT_TDC_RESOLUTION_S) -> RescaledArrivals:
    """Map each detection onto the nominal timeline of its sync interval.

    For q in [s_i, s_{i+1}): q' = (q - s_i)/(s_{i+1} - s_i) * delta_s,
    with delta_s = decimation * sync.nominal_spacing_s.  Input may be a
    DetectionSet (TDC ticks are converted at tdc_resolution_s) or a
    sorted array of seconds.
    """
    if isinstance(detections, DetectionSet):
        q = detections.ticks * tdc_resolution_s
    else:
        q = np.asarray(detections, dtype=np.float64)
    if q.size > 1 and np.any(np.diff(q) < 0):
        raise ValueError("detections must be time-sorted")
    s = sync.times_s
    if s.size < 2:
        raise ValueError("rescaling needs at least 2 sync pulses")
    delta_s = sync.decimation * sync.nominal_spacing_s

    i = np.searchsorted(s, q, side="right") - 1
    ok = (i >= 0) & (i <= s.size - 2)
    dropped_before = int(np.count_nonzero(i < 0))
    dropped_after = int(np.count_nonzero(i > s.size - 2))
    idx = np.flatnonzero(ok)
    i = i[idx]
    qq = q[idx]
    q_prime = (qq - s[i]) / (s[i + 1] - s[i]) * delta_s
    return RescaledArrivals(
        q_prime=q_prime,
        interval_index=i.astype(np.int64),
        source_index=idx.astype(np.int64),
        delta_s_eff=delta_s,
        dropped_before=dropped_before,
        dropped_after=dropped_after,
    )


@dataclass(frozen=True)
class FoldedArrivals:
    """Arrival offsets a = q' mod delta_q, all in [0, delta_q)."""

    values: np.ndarray
    delta_q_s: float

    def __len__(self) -> int:
        return int(self.values.size)


def fold(q_prime, delta_q: float = DEFAULT_DELTA_Q_S) -> FoldedArrivals:
    """Fold rescaled arrivals into one nominal qubit slot."""
    if not delta_q > 0:
        raise ValueError("delta_q must be > 0")
    if isinstance(q_prime, RescaledArrivals):
        q_prime = q_prime.q_prime
    elif isinstance(q_prime, FoldedArrivals):
        q_prime = q_prime.values
    q = np.asarray(q_prime, dtype=np.float64)
    if np.any(q < 0):
        raise ValueError("rescaled arrivals must be non-negative")
    return FoldedArrivals(np.mod(q, delta_q), delta_q)


@dataclass(frozen=True)
class ArrivalHistogram:
    """Folded arrival counts over [0, delta_q) in uniform bins."""

    counts: np.ndarray
    bin_width_s: float
    delta_q_s: float

    def __post_init__(self):
        n = int(round(self.delta_q_s / self.bin_width_s))
        if n < 1 or abs(n * self.bin_width_s - self.delta_q_s) > BIN_DIVISIBILITY_RTOL * self.delta_q_s:
            raise ValueError(
                f"bin width {self.bin_width_s:g} s does not evenly divide "
                f"the slot {self.delta_q_s:g} s"
            )
        if len(self.counts) != n:
            raise ValueError(f"expected {n} bins, got {len(self.counts)}")
        if np.any(np.asarray(self.counts) < 0):
            raise ValueError("bin counts must be non-negative")

    @property
    def n_bins(self) -> int:
        return int(self.counts.size)

    @property
    def bin_centers_s(self) -> np.ndarray:
        return (np.arange(self.n_bins) + 0.5) * self.bin_width_s

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("bin_start_ps,count\n")
            for k, c in enumerate(self.counts):
                fh.write(f"{k * self.bin_width_s * 1e12:.6f},{int(c)}\n")


def histogram(folded: FoldedArrivals, bin_width_s: float) -> ArrivalHistogram:
    """Count folded arrivals into uniform bins covering [0, delta_q)."""
    dq = folded.delta_q_s
    n = int(round(dq / bin_width_s))
    if n < 1 or abs(n * bin_width_s - dq) > BIN_DIVISIBILITY_RTOL * dq:
        raise ValueError(f"bin width {bin_width_s:g} s does not evenly divide the slot {dq:g} s")
    counts, _ = np.histogram(folded.values, bins=n, range=(0.0, dq))
    return ArrivalHistogram(counts.astype(np.int64), bin_width_s, dq)


@dataclass(frozen=True)
class GaussianFit:
    """Fitted peak parameters; fwhm = 2*sqrt(2 ln 2)*sigma."""

    mu_s: float
    sigma_s: float
    amplitude: float
    baseline: float
    fwhm_s: float
    fit_residual: float

    @property
    def peak_to_baseline(self) -> float:
        """Peak height over baseline — the fit's confidence figure."""
        return (self.amplitude + self.baseline) / max(self.baseline, 1e-9)


def _gaussian(x, amplitude, mu, sigma, baseline):
    return amplitude * np.exp(-((x - mu) ** 2) / (2.0 * sigma * sigma)) + baseline


def require_peak(h: ArrivalHistogram) -> None:
    """Raise FitError unless the highest bin stands clear of counting
    noise above the baseline (the 25th-percentile count)."""
    counts = np.asarray(h.counts, dtype=np.float64)
    baseline, peak = float(np.percentile(counts, 25)), float(counts.max())
    if peak - baseline < 5.0 * np.sqrt(max(peak, 1.0)):
        raise FitError(
            f"peak exceeds baseline by {peak - baseline:.0f} counts, within "
            "counting noise; no significant peak"
        )


def fit_gaussian(h: ArrivalHistogram) -> GaussianFit:
    """Damped least-squares Gaussian fit with circular pre-centering.

    The histogram is rotated so its maximum sits mid-range (the folded
    peak may wrap across the slot boundary), fitted, and the center
    rotated back modulo the slot.  Degenerate inputs — fewer than 5
    nonempty bins, peak-to-baseline below 3, a peak within counting
    noise of the baseline, a peak narrower than 3 bins, or a diverging
    fit — raise FitError with a diagnostic.
    """
    counts = np.asarray(h.counts, dtype=np.float64)
    n = h.n_bins
    if np.count_nonzero(counts) < 5:
        raise FitError(f"only {np.count_nonzero(counts)} nonempty bins; need at least 5")
    baseline0 = float(np.percentile(counts, 25))
    peak = float(counts.max())
    if peak < 3.0 * max(baseline0, 1.0):
        raise FitError(
            f"peak-to-baseline ratio {peak / max(baseline0, 1.0):.2f} below 3; no clear peak"
        )
    require_peak(h)
    shift = n // 2 - int(np.argmax(counts))
    y = np.roll(counts, shift)
    half_level = baseline0 + (peak - baseline0) / 2.0
    above = int(np.count_nonzero(y > half_level))
    if above < 3:
        raise FitError(f"peak spans only {above} bins at this binning; need at least 3")
    x = h.bin_centers_s
    sigma0 = above * h.bin_width_s / FWHM_SIGMA
    p0 = [peak - baseline0, x[n // 2], sigma0, baseline0]
    try:
        popt, _ = curve_fit(
            _gaussian, x, y, p0=p0, ftol=1e-10, xtol=1e-10, maxfev=200 * (len(p0) + 1)
        )
    except RuntimeError as exc:
        raise FitError(f"least-squares fit did not converge: {exc}") from exc
    amplitude, mu_rot, sigma, baseline = popt
    sigma = abs(float(sigma))
    if amplitude <= 0 or sigma <= 0 or sigma > h.delta_q_s:
        raise FitError(
            f"fit degenerated (amplitude={amplitude:.3g}, sigma={sigma:.3g} s)"
        )
    mu = float(np.mod(mu_rot - shift * h.bin_width_s, h.delta_q_s))
    resid = float(np.sqrt(np.mean((y - _gaussian(x, *popt)) ** 2)) / amplitude)
    return GaussianFit(
        mu_s=mu,
        sigma_s=sigma,
        amplitude=float(amplitude),
        baseline=float(baseline),
        fwhm_s=FWHM_SIGMA * sigma,
        fit_residual=resid,
    )


def fwhm_equivalent(h: ArrivalHistogram) -> float:
    """Gaussian-equivalent width 2*sqrt(2 ln 2)*std of the rotated histogram.

    Defined for any nonempty histogram, peak or not: the bin with the
    maximum count is rotated to mid-range (removing the fold wrap) and
    the count-weighted variance of the bin centers, plus the within-bin
    variance w^2/12 of arrivals spread over each bin, is scaled to an
    FWHM.  Matches the fitted FWHM for clean Gaussian peaks, never reads
    below one bin's own spread (FWHM_SIGMA * w/sqrt(12)), and gives
    FWHM_SIGMA * delta_q/sqrt(12) for a flat fold where no fit exists.
    """
    counts = np.asarray(h.counts, dtype=np.float64)
    total = counts.sum()
    if total <= 0:
        raise FitError("empty histogram")
    y = np.roll(counts, h.n_bins // 2 - int(np.argmax(counts)))
    x = h.bin_centers_s
    mean = float(np.sum(x * y) / total)
    var = float(np.sum((x - mean) ** 2 * y) / total) + h.bin_width_s ** 2 / 12.0
    return FWHM_SIGMA * np.sqrt(var)


def fit_or_equivalent(h: ArrivalHistogram):
    """(fwhm_s, residual, fit_ok, mu_s or nan): the Gaussian fit, or the
    Gaussian-equivalent width when the histogram does not support a fit."""
    try:
        g = fit_gaussian(h)
        return g.fwhm_s, g.fit_residual, True, g.mu_s
    except FitError:
        return fwhm_equivalent(h), float("nan"), False, float("nan")


@dataclass(frozen=True)
class SweepTable:
    """Decimation sweep result: one row per sync decimation N."""

    n: np.ndarray
    delta_s_eff_s: np.ndarray
    fwhm_s: np.ndarray
    fit_residual: np.ndarray
    fit_ok: np.ndarray

    def __len__(self) -> int:
        return int(self.n.size)

    def growth_point(self, factor: float = 2.0) -> int | None:
        """First N whose FWHM exceeds factor x the N=1 (first-row) value."""
        base = self.fwhm_s[0]
        hits = np.flatnonzero(self.fwhm_s > factor * base)
        return int(self.n[hits[0]]) if hits.size else None

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("n,delta_s_us,fwhm_ps,residual,fit_ok\n")
            for k in range(len(self)):
                fh.write(
                    f"{int(self.n[k])},{self.delta_s_eff_s[k] * 1e6:.3f},"
                    f"{self.fwhm_s[k] * 1e12:.3f},{self.fit_residual[k]:.6g},"
                    f"{'true' if self.fit_ok[k] else 'false'}\n"
                )


def decimation_sweep(
    detections,
    base_sync: SyncPulseTrain,
    n_values,
    *,
    delta_q_s: float = DEFAULT_DELTA_Q_S,
    bin_count: int = DEFAULT_BIN_COUNT,
    tdc_resolution_s: float = DEFAULT_TDC_RESOLUTION_S,
) -> SweepTable:
    """Rescale/fold/fit the same detections at each sync decimation N.

    Rows where the Gaussian fit fails fall back to the Gaussian-equivalent
    width and are flagged fit_ok=false, never dropped.
    """
    n_values = [int(v) for v in n_values]
    if any(v < 1 for v in n_values):
        raise ValueError("decimation values must be >= 1")
    if sorted(n_values) != n_values:
        raise ValueError("n_values must be sorted ascending")
    bin_width = delta_q_s / bin_count

    fwhm = np.empty(len(n_values))
    resid = np.empty(len(n_values))
    ok = np.zeros(len(n_values), dtype=bool)
    for k, nv in enumerate(n_values):
        sync_n = base_sync.decimate(nv)
        r = rescale(detections, sync_n, tdc_resolution_s)
        h = histogram(fold(r, delta_q_s), bin_width)
        try:
            fwhm[k], resid[k], ok[k], _ = fit_or_equivalent(h)
        except FitError:
            fwhm[k], resid[k], ok[k] = float("nan"), float("nan"), False
    return SweepTable(
        n=np.asarray(n_values, dtype=np.int64),
        delta_s_eff_s=np.asarray(n_values, dtype=np.float64) * base_sync.nominal_spacing_s,
        fwhm_s=fwhm,
        fit_residual=resid,
        fit_ok=ok,
    )
