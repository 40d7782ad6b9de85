"""Rescaling, folding, histogramming, and peak fitting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdsync import sync_recovery
from qkdsync.classical_link import SyncPulseTrain
from qkdsync.quantum_link import DetectionSet
from qkdsync.sync_recovery import (
    DEFAULT_BIN_COUNT,
    FWHM_SIGMA,
    ArrivalHistogram,
    FitError,
    SweepTable,
    decimation_sweep,
    fit_gaussian,
    fit_or_equivalent,
    fold,
    fwhm_equivalent,
    histogram,
    rescale,
)
from qkdsync.timebase import EdgeTrain

DELTA_S = 1e-4
DELTA_Q = 20e-9


def sync_train(n=51, scale=1.0, start=0.0):
    times = start + np.arange(1, n + 1) * DELTA_S * scale
    return SyncPulseTrain(EdgeTrain(times), DELTA_S,
                          pulse_boundary_index=np.arange(1, n + 1) * 125_000,
                          locked=np.ones(n, dtype=bool))


# ------------------------------------------------------------------- rescale


def test_rescale_matches_direct_formula():
    sync = sync_train(scale=1 + 3e-5)
    q = np.sort(np.random.default_rng(1).uniform(sync.times_s[0], sync.times_s[-1], 500))
    r = rescale(q, sync)
    s = sync.times_s
    for qi, ii, qp in zip(q[r.source_index], r.interval_index, r.q_prime):
        direct = (qi - s[ii]) / (s[ii + 1] - s[ii]) * DELTA_S
        assert qp == pytest.approx(direct, abs=1e-18)


def test_rescale_drops_out_of_span_detections():
    sync = sync_train(n=10)
    s0, s9 = sync.times_s[0], sync.times_s[-1]
    q = np.array([s0 - 1e-5, s0 + 1e-5, s9 - 1e-5, s9 + 1e-5])
    r = rescale(q, sync)
    assert r.dropped_before == 1
    assert r.dropped_after == 1
    assert len(r) == 2
    assert np.array_equal(r.source_index, [1, 2])


def test_rescale_of_detection_set_times():
    sync = sync_train(n=5)
    res = 81e-12
    q_s = sync.times_s[0] + np.array([1e-5, 3e-5])
    ds = DetectionSet(ticks=np.rint(q_s / res).astype(np.int64),
                      detector=np.zeros(2, dtype=np.int8), tdc_resolution_s=res)
    r = rescale(ds.times_s, sync)
    assert len(r) == 2
    assert np.all((r.q_prime > 0.9e-5) & (r.q_prime < 3.1e-5))


def test_rescale_rejects_unsorted_and_bad_inputs():
    sync = sync_train(n=5)
    with pytest.raises(ValueError):
        rescale(np.array([2e-4, 1e-4]), sync)
    short = sync_train(n=1)
    with pytest.raises(ValueError):
        rescale(np.array([1.5e-4]), short)


def test_rescale_uses_decimation_for_effective_interval():
    base = sync_train(n=40)
    dec = base.decimate(4)
    q = np.array([dec.times_s[0] + 2.5e-4])
    r = rescale(q, dec)
    assert r.delta_s_eff == pytest.approx(4 * DELTA_S)
    # 2.5e-4 into a 4e-4 interval -> q' = 2.5e-4 on the nominal axis
    assert r.q_prime[0] == pytest.approx(2.5e-4, rel=1e-9)


def _rescale_by_binary_search(q, sync):
    """The interval lookup as a binary search over every detection: the
    reference the interpolated lookup must reproduce bit for bit."""
    s = sync.times_s
    delta_s = sync.decimation * sync.nominal_spacing_s
    i = np.searchsorted(s, q, side="right") - 1
    dropped_before = int(np.count_nonzero(i < 0))
    dropped_after = int(np.count_nonzero(i > s.size - 2))
    idx = np.flatnonzero((i >= 0) & (i <= s.size - 2))
    i = i[idx]
    b = sync.pulse_boundary_index
    delta_i = (b[i + 1] - b[i]) / sync.boundary_step * delta_s
    q_prime = (q[idx] - s[i]) / (s[i + 1] - s[i]) * delta_i
    return dict(q_prime=q_prime, interval_index=i.astype(np.int64),
                source_index=idx.astype(np.int64), delta_s_eff=delta_s,
                dropped_before=dropped_before, dropped_after=dropped_after)


def _with_edge_cases(q, s):
    """q plus detections before s_0, exactly on every pulse, one ulp below
    every pulse, and at and after the last pulse."""
    extra = [s, np.nextafter(s, -np.inf), s[[0, 0, -1, -1]],
             s[0] - np.array([1e-3, 1e-9]), s[-1] + np.array([1e-9, 1e-3])]
    return np.sort(np.concatenate([q, *extra]))


def _assert_rescale_identical(q, sync):
    got = rescale(q, sync)
    want = _rescale_by_binary_search(q, sync)
    for name, value in want.items():
        have = getattr(got, name)
        if isinstance(value, np.ndarray):
            assert have.dtype == value.dtype, name
            assert have.tobytes() == value.tobytes(), name
        else:
            assert have == value, name


def test_rescale_is_the_binary_search_on_the_blocking_train():
    # the free-running span (4-8 s) bends the train away from the straight
    # line the interval guess assumes; decimation widens the intervals
    from qkdsync.config import defaults
    from qkdsync.simulate import build_clocks, make_sync_train

    cfg = defaults("blocking", seed=3, duration_s=12.0, block_start_s=4.0, block_end_s=8.0)
    tx, rx = build_clocks(cfg)
    sync = make_sync_train(tx, rx, cfg, blocks=((4.0, 8.0),))
    assert not sync.locked.all()
    s = sync.times_s
    q = _with_edge_cases(np.random.default_rng(3).uniform(s[0] - 0.1, s[-1] + 0.1, 200_000), s)
    for factor in (1, 10, 200, 1000):
        _assert_rescale_identical(q, sync.decimate(factor))
    for a in (0, 50_000, 150_000, q.size - 20_000):
        _assert_rescale_identical(q[a:a + 20_000], sync)


def test_rescale_is_the_binary_search_on_a_train_with_missing_pulses():
    full = sync_train(n=2001, scale=1 + 3e-5)
    keep = np.ones(len(full), dtype=bool)
    keep[[1, 7, 8, 500]] = False
    keep[1000:1400] = False  # a long gap moves every later guess
    gapped = SyncPulseTrain(EdgeTrain(full.times_s[keep]), DELTA_S,
                            pulse_boundary_index=full.pulse_boundary_index[keep],
                            locked=full.locked[keep])
    s = gapped.times_s
    q = _with_edge_cases(np.random.default_rng(4).uniform(0.0, s[-1] + DELTA_S, 50_000), s)
    _assert_rescale_identical(q, gapped)
    _assert_rescale_identical(q, gapped.decimate(10))
    for q_few in (q[:0], q[:1], s[-1:], s[:1]):
        _assert_rescale_identical(q_few, gapped)


# ---------------------------------------------------------------------- fold


def test_fold_range_and_values():
    q = np.array([0.0, 5e-9, 20e-9, 45e-9, 1e-4])
    f = fold(q, DELTA_Q)
    assert np.allclose(f.values, [0.0, 5e-9, 0.0, 5e-9, 0.0], atol=1e-15)
    assert np.all((f.values >= 0) & (f.values < DELTA_Q))


@given(st.lists(st.floats(min_value=0, max_value=1e-3), min_size=1, max_size=50))
@settings(max_examples=100, deadline=None)
def test_fold_is_idempotent(values):
    once = fold(np.asarray(values), DELTA_Q)
    twice = fold(once, DELTA_Q)
    assert np.array_equal(once.values, twice.values)
    assert np.all((once.values >= 0) & (once.values < DELTA_Q))


def test_fold_rejects_negative_and_bad_slot():
    with pytest.raises(ValueError):
        fold(np.array([-1e-12]), DELTA_Q)
    with pytest.raises(ValueError):
        fold(np.array([1e-9]), 0.0)


# ----------------------------------------------------------------- histogram


def test_histogram_conserves_counts():
    gen = np.random.default_rng(2)
    f = fold(gen.uniform(0, 1e-3, 10_000), DELTA_Q)
    h = histogram(f, DELTA_Q / DEFAULT_BIN_COUNT)
    assert h.total == 10_000
    assert h.n_bins == DEFAULT_BIN_COUNT


@given(st.integers(min_value=1, max_value=2000), st.sampled_from([5, 40, 247]))
@settings(max_examples=50, deadline=None)
def test_histogram_conservation_property(n, bins):
    gen = np.random.default_rng(n)
    f = fold(gen.uniform(0, 5e-8, n), DELTA_Q)
    h = histogram(f, DELTA_Q / bins)
    assert h.total == n


def test_histogram_rejects_non_dividing_bin_width():
    f = fold(np.array([1e-9]), DELTA_Q)
    with pytest.raises(ValueError):
        histogram(f, 81e-12)  # 81 ps does not divide 20 ns
    histogram(f, DELTA_Q / 247)  # the closest dividing width works


def test_histogram_csv(tmp_path):
    f = fold(np.array([1e-9, 1.05e-9, 12e-9]), DELTA_Q)
    h = histogram(f, DELTA_Q / 40)
    path = tmp_path / "h.csv"
    h.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "bin_start_ps,count"
    assert len(lines) == 41
    counts = [int(l.split(",")[1]) for l in lines[1:]]
    assert sum(counts) == 3


# ----------------------------------------------------------------------- fits


def _gaussian_hist(sigma_s, n=200_000, mu=10e-9, baseline_rate=0.0, seed=4,
                   bins=DEFAULT_BIN_COUNT):
    gen = np.random.default_rng(seed)
    vals = gen.normal(mu, sigma_s, n)
    if baseline_rate > 0:
        vals = np.concatenate([vals, gen.uniform(0, DELTA_Q, int(n * baseline_rate))])
    f = fold(np.mod(vals, DELTA_Q), DELTA_Q)
    return histogram(f, DELTA_Q / bins)


def test_fit_recovers_sigma_within_two_percent():
    sigma = 435e-12
    fit = fit_gaussian(_gaussian_hist(sigma))
    assert abs(fit.sigma_s - sigma) / sigma < 0.02
    assert fit.fwhm_s == pytest.approx(FWHM_SIGMA * fit.sigma_s)
    assert fit.mu_s == pytest.approx(10e-9, abs=20e-12)
    assert fit.fit_residual < 0.02


def test_fit_handles_wrap_around_peak():
    fit = fit_gaussian(_gaussian_hist(435e-12, mu=19.95e-9))
    # centered across the fold boundary; the recovered center must wrap
    assert min(fit.mu_s, DELTA_Q - fit.mu_s) < 120e-12 or fit.mu_s > 19.8e-9
    assert abs(fit.sigma_s - 435e-12) / 435e-12 < 0.02


def test_fit_recovers_baseline():
    fit = fit_gaussian(_gaussian_hist(435e-12, baseline_rate=0.5))
    assert abs(fit.sigma_s - 435e-12) / 435e-12 < 0.03
    expected_baseline = 0.5 * 200_000 / DEFAULT_BIN_COUNT
    assert fit.baseline == pytest.approx(expected_baseline, rel=0.05)
    assert fit.peak_to_baseline > 3


# curve_fit's (fwhm_s, mu_s) on the three histograms above, recorded when
# the fit was scipy's (scipy 1.17.1, numpy 2.4.6); the numpy fit must
# land within 0.1 ps of each
CURVE_FIT_RESULTS = [
    ({}, 1.0277894161200691e-09, 1.0002114706170826e-08),
    ({"mu": 19.95e-9}, 1.027455505146292e-09, 1.9952036989184088e-08),
    ({"baseline_rate": 0.5}, 1.027286394687713e-09, 1.0002294048138985e-08),
]


@pytest.mark.parametrize("kwargs,fwhm_s,mu_s", CURVE_FIT_RESULTS)
def test_fit_matches_recorded_curve_fit(kwargs, fwhm_s, mu_s):
    fit = fit_gaussian(_gaussian_hist(435e-12, **kwargs))
    assert fit.fwhm_s == pytest.approx(fwhm_s, abs=0.1e-12)
    assert fit.mu_s == pytest.approx(mu_s, abs=0.1e-12)


def test_fit_raises_past_the_iteration_cap(monkeypatch):
    monkeypatch.setattr(sync_recovery, "FIT_MAX_ITER", 1)
    with pytest.raises(FitError, match="did not converge in 1 steps"):
        fit_gaussian(_gaussian_hist(435e-12))


def _scattered_spikes():
    counts = np.zeros(247, dtype=np.int64)
    counts[[3, 18, 28, 31, 35, 61, 107, 154, 171, 211, 238]] = [
        279, 377, 314, 486, 135, 305, 452, 24, 247, 410, 433]
    return counts


def test_fit_on_scattered_spikes_raises_fit_error():
    # eleven one-bin spikes sit above half height, but none has a neighbour
    # there: the contiguous peak is one bin wide
    with pytest.raises(FitError, match="spans only 1 bins"):
        fit_gaussian(ArrivalHistogram(_scattered_spikes(), DELTA_Q / 247, DELTA_Q))


def test_singular_least_squares_step_raises_fit_error():
    # fitted from fit_gaussian's start point, the scattered spikes drive
    # sigma below a bin until the normal equations are singular
    y = np.roll(_scattered_spikes().astype(np.float64), 123 - 31)
    x = np.arange(247) + 0.5
    with pytest.raises(FitError, match="no solution"):
        # nine spikes stand above half the 486-count maximum over a zero baseline
        sync_recovery._fit_least_squares(x, y, [486.0, x[123], 9 / FWHM_SIGMA, 0.0])


def test_fit_rejects_uniform_histogram():
    gen = np.random.default_rng(9)
    h = histogram(fold(gen.uniform(0, DELTA_Q, 50_000), DELTA_Q), DELTA_Q / 247)
    with pytest.raises(FitError):
        fit_gaussian(h)


def test_fit_rejects_sparse_histogram():
    h = ArrivalHistogram(
        counts=np.array([0, 0, 100, 50, 0], dtype=np.int64),
        bin_width_s=DELTA_Q / 5, delta_q_s=DELTA_Q)
    with pytest.raises(FitError):
        fit_gaussian(h)  # only 2 nonempty bins


def test_fit_rejects_single_bin_spike():
    counts = np.zeros(247, dtype=np.int64)
    counts[100] = 10_000
    counts[[3, 50, 150, 200]] = 1  # enough nonempty bins, still a 1-bin peak
    h = ArrivalHistogram(counts, DELTA_Q / 247, DELTA_Q)
    with pytest.raises(FitError):
        fit_gaussian(h)


def test_fwhm_equivalent_matches_fit_on_gaussian():
    h = _gaussian_hist(435e-12)
    fit = fit_gaussian(h)
    assert abs(fwhm_equivalent(h) - fit.fwhm_s) / fit.fwhm_s < 0.05


def test_fwhm_equivalent_on_uniform_fold():
    gen = np.random.default_rng(10)
    h = histogram(fold(gen.uniform(0, DELTA_Q, 200_000), DELTA_Q), DELTA_Q / 247)
    expected = FWHM_SIGMA * DELTA_Q / np.sqrt(12)
    assert fwhm_equivalent(h) == pytest.approx(expected, rel=0.05)


def test_fwhm_equivalent_of_one_bin_spike_is_the_bin_spread():
    counts = np.zeros(247, dtype=np.int64)
    counts[100] = 10_000
    h = ArrivalHistogram(counts, DELTA_Q / 247, DELTA_Q)
    assert fwhm_equivalent(h) == pytest.approx(FWHM_SIGMA * h.bin_width_s / np.sqrt(12),
                                               rel=1e-12)


def test_fwhm_equivalent_of_flat_histogram_is_the_slot_spread():
    h = ArrivalHistogram(np.full(247, 40, dtype=np.int64), DELTA_Q / 247, DELTA_Q)
    assert fwhm_equivalent(h) == pytest.approx(FWHM_SIGMA * DELTA_Q / np.sqrt(12),
                                               rel=1e-12)


def test_fit_or_direct_flags_fallback():
    good = _gaussian_hist(435e-12)
    fwhm, resid, ok, mu = fit_or_equivalent(good)
    assert ok and fwhm > 0 and np.isfinite(mu)
    counts = np.zeros(247, dtype=np.int64)
    counts[100] = 10_000
    spike = ArrivalHistogram(counts, DELTA_Q / 247, DELTA_Q)
    fwhm, resid, ok, mu = fit_or_equivalent(spike)
    assert not ok
    assert fwhm == fwhm_equivalent(spike) <= 2 * spike.bin_width_s
    assert np.isnan(mu)


# ------------------------------------------------------------------ the sweep


def test_decimation_sweep_validates_n_values():
    sync = sync_train(n=40)
    q = np.sort(np.random.default_rng(3).uniform(sync.times_s[0], sync.times_s[-1], 100))
    with pytest.raises(ValueError):
        decimation_sweep(q, sync, [5, 1], delta_q_s=DELTA_Q)
    with pytest.raises(ValueError):
        decimation_sweep(q, sync, [0, 1], delta_q_s=DELTA_Q)


def test_decimation_sweep_rows_and_csv(tmp_path):
    # arrivals pinned to slot centers + tiny jitter: width stays flat with N
    gen = np.random.default_rng(4)
    sync = sync_train(n=60)
    slots = gen.integers(0, 5000 * 59, 30_000)
    q = np.sort(sync.times_s[0] + slots * DELTA_Q + 5e-9 + gen.normal(0, 4e-10, slots.size))
    table = decimation_sweep(q, sync, [1, 2, 5], delta_q_s=DELTA_Q, bin_count=247)
    assert np.array_equal(table.n, [1, 2, 5])
    assert np.allclose(table.delta_s_eff_s, [1e-4, 2e-4, 5e-4])
    assert np.all(table.fit_ok)
    assert np.all(np.abs(table.fwhm_s - FWHM_SIGMA * 4e-10) < 0.1 * FWHM_SIGMA * 4e-10)
    path = tmp_path / "sweep.csv"
    table.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "n,delta_s_us,fwhm_ps,residual,fit_ok"
    assert len(lines) == 4
    assert lines[1].startswith("1,100.000,")


def test_growth_point():
    table = SweepTable(
        n=np.array([1, 10, 100, 500]),
        delta_s_eff_s=np.array([1e-4, 1e-3, 1e-2, 5e-2]),
        fwhm_s=np.array([1e-9, 1.1e-9, 2.5e-9, 9e-9]),
        fit_residual=np.zeros(4),
        fit_ok=np.ones(4, dtype=bool),
    )
    assert table.growth_point(2.0) == 100
    assert table.growth_point(10.0) is None
