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

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .classical_link import SyncPulseTrain

# finest bin count that divides the 20 ns slot while staying within one
# TDC tick of 81 ps: 20 ns / 247 = 80.97 ps
DEFAULT_BIN_COUNT = 247

FWHM_SIGMA = 2.0 * np.sqrt(2.0 * np.log(2.0))  # 2.3548...

# the Gaussian fit ends once a step changes the cost or the parameters by
# less than FIT_RTOL (relative), and fails after FIT_MAX_ITER steps
FIT_RTOL = 1e-10
FIT_MAX_ITER = 1000


class FitError(RuntimeError):
    """The histogram does not support a meaningful Gaussian fit."""


@dataclass(frozen=True)
class RescaledArrivals:
    """Rescaled detection times q' with their sync-interval indices.

    Detections outside the sync-covered span are dropped and counted,
    Eq.-style rescaling needs bracketing pulses; the kept ones are one
    contiguous run, so kept value k comes from detection
    dropped_before + k of the set rescaled.
    """

    q_prime: np.ndarray
    interval_index: np.ndarray
    dropped_before: int
    dropped_after: int

    def __len__(self) -> int:
        return int(self.q_prime.size)


def rescale(times_s, sync: SyncPulseTrain) -> RescaledArrivals:
    """Map each detection time onto the nominal timeline of its sync interval.

    For q in [s_i, s_{i+1}): q' = (q - s_i)/(s_{i+1} - s_i) * delta_s,
    with delta_s = sync.step_spacing_s.  times_s is a sorted array of
    receiver seconds, such as the `times_s` of one part of the detection
    stream.

    Detections before s_0 or at or after the last pulse are dropped;
    since times_s is sorted, the kept ones are one contiguous run.  The
    pulses are nearly evenly spaced, so each kept detection's interval
    is first guessed by linear interpolation between the first and last
    pulse (Perl, Itai & Avni 1978) and checked against its two pulses;
    only the misses, where the train bends away from a straight line (a
    free-running span), fall back to a binary search.  Either way i is
    the one interval with s_i <= q < s_{i+1}.
    """
    q = np.asarray(times_s, dtype=np.float64)
    if np.any(q[1:] < q[:-1]):
        raise ValueError("detections must be time-sorted")
    s = sync.times_s
    n = s.size
    if n < 2:
        raise ValueError("rescaling needs at least 2 sync pulses")

    lo, hi = np.searchsorted(q, s[[0, -1]], side="left")
    qq = q[lo:hi]
    i = ((qq - s[0]) * ((n - 1) / (s[-1] - s[0]))).astype(np.int64)
    np.clip(i, 0, n - 2, out=i)
    s_i, s_next = s[i], s[i + 1]
    miss = np.flatnonzero((qq < s_i) | (qq >= s_next))
    i[miss] = np.searchsorted(s, qq[miss], side="right") - 1
    s_i[miss], s_next[miss] = s[i[miss]], s[i[miss] + 1]
    return RescaledArrivals(
        q_prime=(qq - s_i) / (s_next - s_i) * sync.step_spacing_s,
        interval_index=i,
        dropped_before=int(lo),
        dropped_after=int(q.size - hi),
    )


def fold(q_prime, delta_q: float) -> np.ndarray:
    """Arrival offsets q' mod delta_q, all in [0, delta_q): rescaled
    arrivals folded into one nominal qubit slot."""
    if not delta_q > 0:
        raise ValueError("delta_q must be > 0")
    q = np.asarray(q_prime, dtype=np.float64)
    if np.any(q < 0):
        raise ValueError("rescaled arrivals must be non-negative")
    return np.mod(q, delta_q)


@dataclass(frozen=True)
class ArrivalHistogram:
    """Folded arrival counts over [0, delta_q) in uniform bins."""

    counts: np.ndarray
    delta_q_s: float

    def __post_init__(self):
        if self.n_bins < 1:
            raise ValueError("a histogram needs at least 1 bin")
        if np.any(self.counts < 0):
            raise ValueError("bin counts must be non-negative")

    @property
    def n_bins(self) -> int:
        return int(self.counts.size)

    @property
    def bin_width_s(self) -> float:
        return self.delta_q_s / self.n_bins

    @property
    def bin_centers_s(self) -> np.ndarray:
        return (np.arange(self.n_bins) + 0.5) * self.bin_width_s

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @functools.cached_property
    def baseline(self) -> float:
        """The 25th-percentile count, interpolated linearly between the two
        nearest ranks as `np.percentile(counts, 25)` does; for integer counts
        the value is the same bits."""
        at = 0.25 * (self.n_bins - 1)
        lo = int(at)
        hi = min(lo + 1, self.n_bins - 1)
        ranked = np.partition(self.counts, [lo, hi])
        below = float(ranked[lo])
        return below + (float(ranked[hi]) - below) * (at - lo)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("bin_start_ps,count\n")
            for k, c in enumerate(self.counts):
                fh.write(f"{k * self.bin_width_s * 1e12:.6f},{int(c)}\n")


def histogram(folded, delta_q: float, bin_count: int) -> ArrivalHistogram:
    """Count folded arrivals into bin_count uniform bins tiling [0, delta_q)."""
    counts, _ = np.histogram(folded, bins=bin_count, range=(0.0, delta_q))
    return ArrivalHistogram(counts.astype(np.int64), delta_q)


def fold_histogram(pairs, delta_q_s: float,
                   bin_count: int) -> tuple[tuple[ArrivalHistogram, ...], int]:
    """(one histogram per sync train, count of detections folded): each
    part rescaled against each of its trains, folded and histogrammed in
    one pass.

    pairs yields at least one (part, trains): a `DetectionSet` and a
    tuple of sync trains that bracket it as the run's trains do, such as
    the windows `simulate.sync_windows` gives each set `simulate.split_at`
    cuts the stream into, train k of every pair a window of the run's
    train k.  A part's ticks are turned into seconds once, whatever the
    number of trains.  Counts over parts add, so any split of the
    detections gives the same counts.
    """
    counts, n = 0, 0
    for part, trains in pairs:
        n += len(part)
        times_s = part.times_s
        counts = counts + np.stack([
            histogram(fold(rescale(times_s, sync).q_prime, delta_q_s), delta_q_s,
                      bin_count).counts for sync in trains])
    return tuple(ArrivalHistogram(row, delta_q_s) for row in counts), n


@dataclass(frozen=True)
class GaussianFit:
    """Fitted peak parameters; fwhm = 2*sqrt(2 ln 2)*sigma."""

    mu_s: float
    sigma_s: float
    amplitude: float
    baseline: float
    fwhm_s: float
    fit_residual: float


def _gaussian(x, amplitude, mu, sigma, baseline):
    return amplitude * np.exp(-((x - mu) ** 2) / (2.0 * sigma * sigma)) + baseline


def _gaussian_jacobian(x, amplitude, mu, sigma, baseline):
    e = np.exp(-((x - mu) ** 2) / (2.0 * sigma * sigma))
    u = (x - mu) / sigma
    return np.column_stack(
        [e, amplitude * e * u / sigma, amplitude * e * u * u / sigma, np.ones_like(x)])


def _fit_least_squares(x, y, p):
    """Levenberg-Marquardt fit of _gaussian to (x, y), starting from p.

    Each step solves the damped normal equations scaled to unit column
    norms (Marquardt 1963); a step that lowers the cost is taken and the
    damping divided by 10, otherwise the damping grows tenfold.  Ends
    once a taken step changes the cost or the parameters by less than
    FIT_RTOL, or at the current point once a step that small still
    cannot lower the cost.
    """
    p = np.asarray(p, dtype=np.float64)
    r = y - _gaussian(x, *p)
    cost = r @ r
    jac = _gaussian_jacobian(x, *p)
    damping = 1e-3
    with np.errstate(all="ignore"):  # trial steps may leave the finite range
        for _ in range(FIT_MAX_ITER):
            norms = np.sqrt(np.sum(jac * jac, axis=0))
            scaled = jac / norms
            try:
                step = np.linalg.solve(scaled.T @ scaled + damping * np.eye(p.size),
                                       scaled.T @ r) / norms
            except np.linalg.LinAlgError as exc:
                raise FitError(f"least-squares step has no solution: {exc}") from exc
            small = np.linalg.norm(norms * step) <= FIT_RTOL * np.linalg.norm(norms * p)
            trial = p + step
            r_trial = y - _gaussian(x, *trial)
            cost_trial = r_trial @ r_trial
            if not cost_trial < cost:
                if small:
                    return p
                damping *= 10.0
                continue
            small = small or cost - cost_trial <= FIT_RTOL * cost
            p, r, cost = trial, r_trial, cost_trial
            if small:
                return p
            jac = _gaussian_jacobian(x, *p)
            damping /= 10.0
    raise FitError(
        f"least-squares fit did not converge in {FIT_MAX_ITER} steps "
        f"(amplitude={p[0]:.3g}, sigma={p[2]:.3g} bins)")


def require_peak(h: ArrivalHistogram) -> None:
    """Raise FitError unless the highest bin stands clear of counting
    noise above the baseline (the 25th-percentile count)."""
    baseline, peak = h.baseline, float(h.counts.max())
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
    noise of the baseline, a run above half height around the maximum
    narrower than 3 bins, a fit still moving after FIT_MAX_ITER steps,
    or a degenerate result — raise FitError with a diagnostic.
    """
    counts = np.asarray(h.counts, dtype=np.float64)
    n = h.n_bins
    if np.count_nonzero(counts) < 5:
        raise FitError(f"only {np.count_nonzero(counts)} nonempty bins; need at least 5")
    baseline0 = h.baseline
    peak = float(counts.max())
    if peak < 3.0 * max(baseline0, 1.0):
        raise FitError(
            f"peak-to-baseline ratio {peak / max(baseline0, 1.0):.2f} below 3; no clear peak"
        )
    require_peak(h)
    shift = n // 2 - int(np.argmax(counts))
    y = np.roll(counts, shift)
    above = y > baseline0 + (peak - baseline0) / 2.0
    # width of the contiguous run above half height around the maximum at
    # n // 2, up to the nearest bin on each side that is not above it,
    # circularly; the quarter of the bins at or below baseline0 ensure one
    below = np.flatnonzero(~above)
    right = np.min((below - n // 2) % n)
    left = np.min((n // 2 - below) % n)
    run = int(right + left) - 1
    if run < 3:
        raise FitError(f"peak spans only {run} bins at this binning; need at least 3")
    # fit in bin units (x = bin index + 0.5), where the normal equations
    # stay well conditioned, then scale mu and sigma by the bin width
    x = np.arange(n) + 0.5
    popt = _fit_least_squares(
        x, y, [peak - baseline0, x[n // 2], np.count_nonzero(above) / FWHM_SIGMA, baseline0])
    amplitude, mu_rot, sigma, baseline = popt
    sigma = abs(float(sigma)) * h.bin_width_s
    if not amplitude > 0 or not 0 < sigma <= h.delta_q_s:
        raise FitError(
            f"fit degenerated (amplitude={amplitude:.3g}, sigma={sigma:.3g} s)"
        )
    mu = float(np.mod((mu_rot - shift) * h.bin_width_s, h.delta_q_s))
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
    pairs,
    n_values,
    *,
    delta_q_s: float,
    bin_count: int = DEFAULT_BIN_COUNT,
) -> SweepTable:
    """Rescale/fold/fit the same detections at each sync decimation N.

    pairs yields at least one (part, sync): a `DetectionSet` and a train
    whose decimation by each N brackets it as the run's train does, such
    as a window of `simulate.sync_windows` with pad max(n_values).  Each
    part is folded against every decimation of its train in one pass
    (`fold_histogram`).  Rows where the Gaussian fit fails fall back to
    the Gaussian-equivalent width and are flagged fit_ok=false, never
    dropped.
    """
    n_values = [int(v) for v in n_values]
    if any(v < 1 for v in n_values):
        raise ValueError("decimation values must be >= 1")
    if sorted(n_values) != n_values:
        raise ValueError("n_values must be sorted ascending")

    fwhm = np.empty(len(n_values))
    resid = np.empty(len(n_values))
    ok = np.zeros(len(n_values), dtype=bool)
    pairs = iter(pairs)
    first = next(pairs)
    step_spacing_s = first[1].step_spacing_s
    hists, _ = fold_histogram(((part, tuple(sync.decimate(nv) for nv in n_values))
                               for part, sync in itertools.chain([first], pairs)),
                              delta_q_s, bin_count)
    for k, h in enumerate(hists):
        try:
            fwhm[k], resid[k], ok[k], _ = fit_or_equivalent(h)
        except FitError:
            fwhm[k], resid[k], ok[k] = float("nan"), float("nan"), False
    return SweepTable(
        n=np.asarray(n_values, dtype=np.int64),
        delta_s_eff_s=np.asarray(n_values, dtype=np.float64) * step_spacing_s,
        fwhm_s=fwhm,
        fit_residual=resid,
        fit_ok=ok,
    )
