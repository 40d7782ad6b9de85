"""Clock models, schedule/local/reading conversions, and edge trains."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdsync.timebase import (
    ClockConfigError,
    ClockModel,
    EdgeTrain,
    local_time,
    quantize,
    reading_time,
)


def make_clock(**kw):
    base = dict(
        nominal_frequency_hz=1.25e9,
        fractional_offset=0.0,
        drift_rate_per_s=0.0,
        white_jitter_sigma_s=0.0,
        seed=1,
    )
    base.update(kw)
    return ClockModel(**base)


# ---------------------------------------------------------------- validation


def test_clock_rejects_bad_parameters():
    with pytest.raises(ClockConfigError):
        make_clock(nominal_frequency_hz=0.0)
    with pytest.raises(ClockConfigError):
        make_clock(fractional_offset=2e-3)  # beyond the +-1e-3 sanity bound
    with pytest.raises(ClockConfigError):
        make_clock(white_jitter_sigma_s=-1e-12)
    with pytest.raises(ClockConfigError):
        make_clock(freq_walk_per_sqrt_s=1e-6)  # walk needs an explicit span


# ---------------------------------------------------------------- local_time


def test_local_time_matches_hand_formula():
    clk = make_clock(fractional_offset=3e-6, drift_rate_per_s=2e-6)
    t = np.array([0.0, 0.5, 2.0])
    expected = t * (1 + 3e-6) + 0.5 * 2e-6 * t**2
    assert np.allclose(np.asarray(local_time(clk, t)), expected, rtol=0, atol=1e-18)


def test_local_time_jitter_statistics_and_determinism():
    clk = make_clock(white_jitter_sigma_s=30e-12)
    idx = np.arange(50_000)
    t = idx * 1e-7
    noisy = np.asarray(local_time(clk, t, jitter_index=idx, jitter_stream="a"))
    resid = noisy - t
    assert abs(resid.std() - 30e-12) / 30e-12 < 0.02
    again = np.asarray(local_time(clk, t, jitter_index=idx, jitter_stream="a"))
    assert np.array_equal(noisy, again)


def test_jitter_streams_are_namespaced():
    clk = make_clock(white_jitter_sigma_s=30e-12)
    idx = np.arange(10_000)
    t = idx * 1e-7
    a = np.asarray(local_time(clk, t, jitter_index=idx, jitter_stream="a")) - t
    b = np.asarray(local_time(clk, t, jitter_index=idx, jitter_stream="b")) - t
    assert not np.array_equal(a, b)
    assert abs(float(np.corrcoef(a, b)[0, 1])) < 0.03


# ---------------------------------------------------------------- reading_time


@given(
    st.floats(min_value=-5e-4, max_value=5e-4),
    st.floats(min_value=-1e-5, max_value=1e-5),
    st.floats(min_value=0.0, max_value=10.0),
)
@settings(max_examples=100, deadline=None)
def test_reading_time_inverts_local_time(offset, drift, t):
    clk = make_clock(fractional_offset=offset, drift_rate_per_s=drift)
    physical = np.asarray(local_time(clk, np.array([t])))
    back = np.asarray(reading_time(clk, physical))
    # reading_time(local_time(t)) = t: the clock reads its own schedule
    assert back[0] == pytest.approx(t, abs=1e-12)


def test_reading_time_inverts_with_frequency_walk():
    clk = make_clock(freq_walk_per_sqrt_s=5e-6, walk_span_s=1.0, seed=9)
    t = np.linspace(0.0, 0.9, 1000)
    physical = np.asarray(local_time(clk, t))
    back = np.asarray(reading_time(clk, physical))
    assert np.max(np.abs(back - t)) < 1e-12


def test_walk_carries_no_net_frequency_offset():
    # the walk's net slope over its span is removed, so the long-run rate
    # stays at the configured offset (here 0) to well below 100 ppm; an
    # unbridged walk of this strength would wander at the ~5e-6 level
    clk = make_clock(freq_walk_per_sqrt_s=5e-6, walk_span_s=2.0, seed=4)
    t0, t1 = 0.0, 2.0
    span = np.asarray(local_time(clk, np.array([t0, t1])))
    rate_offset = (span[1] - span[0]) / (t1 - t0) - 1.0
    assert abs(rate_offset) < 1e-8


def test_walk_is_deterministic_per_seed():
    a = make_clock(freq_walk_per_sqrt_s=5e-6, walk_span_s=0.5, seed=3)
    b = make_clock(freq_walk_per_sqrt_s=5e-6, walk_span_s=0.5, seed=3)
    c = make_clock(freq_walk_per_sqrt_s=5e-6, walk_span_s=0.5, seed=5)
    t = np.linspace(0, 0.4, 100)
    assert np.array_equal(np.asarray(local_time(a, t)), np.asarray(local_time(b, t)))
    assert not np.array_equal(np.asarray(local_time(a, t)), np.asarray(local_time(c, t)))


def test_walk_tables_stay_bounded_across_a_seed_sweep():
    from qkdsync.timebase import _walk_table

    t = np.linspace(0, 0.4, 100)
    first = make_clock(freq_walk_per_sqrt_s=5e-6, walk_span_s=0.5, seed=100)
    before = np.asarray(local_time(first, t))
    for seed in range(20):
        local_time(make_clock(freq_walk_per_sqrt_s=5e-6, walk_span_s=0.5, seed=seed), t)
    info = _walk_table.cache_info()
    assert info.currsize <= 8 and info.maxsize == 8
    # the first clock's table was evicted; rebuilding it gives the same times
    again = make_clock(freq_walk_per_sqrt_s=5e-6, walk_span_s=0.5, seed=100)
    assert np.array_equal(np.asarray(local_time(again, t)), before)


def test_walk_beyond_span_raises():
    clk = make_clock(freq_walk_per_sqrt_s=5e-6, walk_span_s=0.1, seed=3)
    with pytest.raises(ValueError):
        local_time(clk, np.array([1.0]))


# ---------------------------------------------------------------- edge trains


def test_edge_train_requires_increasing_times():
    with pytest.raises(ValueError):
        EdgeTrain(np.array([1e-9, 1e-9]))
    with pytest.raises(ValueError):
        EdgeTrain(np.array([2e-9, 1e-9]))


# ---------------------------------------------------------------- quantize


def test_quantize_floors_to_grid():
    ticks = quantize(np.array([0.0, 80.9e-12, 81.0e-12, 161.9e-12]), 81e-12)
    assert ticks.tolist() == [0, 0, 1, 1]
    assert ticks.dtype == np.int64


def test_quantize_rejects_negative_times():
    with pytest.raises(ValueError):
        quantize(np.array([-1e-12]), 81e-12)


@given(st.floats(min_value=0, max_value=100.0), st.sampled_from([81e-12, 1e-9, 2.5e-10]))
@settings(max_examples=100, deadline=None)
def test_quantize_is_a_floor(t, res):
    k = int(quantize(np.array([t]), res)[0])
    # floor up to float rounding at the bin boundary
    assert k * res <= t * (1 + 1e-12) + res * 1e-12
    assert (k + 1) * res > t * (1 - 1e-12) - res * 1e-12
