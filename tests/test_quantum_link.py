"""Qubit states, channel parameters, measurement, time-tagging."""

import numpy as np
import pytest

from qkdsync.quantum_link import (
    A,
    D,
    H,
    V,
    X,
    Z,
    ChannelConfigError,
    ChannelParams,
    DetectionSet,
    QubitPattern,
    detector_basis,
    measure_polarization,
    time_tag,
    ORIGIN_BACKGROUND,
    ORIGIN_SIGNAL,
)

# ----------------------------------------------------------------- validation


def test_channel_params_bounds():
    ChannelParams()  # defaults valid
    with pytest.raises(ChannelConfigError):
        ChannelParams(transmittance=0.0)
    with pytest.raises(ChannelConfigError):
        ChannelParams(transmittance=1.5)
    with pytest.raises(ChannelConfigError):
        ChannelParams(detector_efficiency=0.0)
    with pytest.raises(ChannelConfigError):
        ChannelParams(background_rate_hz=-1.0)
    with pytest.raises(ChannelConfigError):
        ChannelParams(doppler_beta=1e-4)  # bound is exclusive


# --------------------------------------------------------------- state pattern


def test_pattern_frequencies_and_random_access():
    pat = QubitPattern.from_seed(11)
    dense = pat.states(np.arange(100_000))
    freq = np.bincount(dense, minlength=3) / dense.size
    assert np.allclose(freq, [0.25, 0.25, 0.5], atol=0.01)
    pick = np.array([5, 99_999, 31_337])
    assert np.array_equal(pat.states(pick), dense[pick])


def test_pattern_is_seed_deterministic():
    a = QubitPattern.from_seed(1).states(np.arange(1000))
    b = QubitPattern.from_seed(1).states(np.arange(1000))
    c = QubitPattern.from_seed(2).states(np.arange(1000))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# ---------------------------------------------------------------- measurement


def test_born_rule_frequencies():
    gen = np.random.default_rng(7)
    n = 80_000
    z = np.zeros(n, dtype=np.int8)
    x = np.ones(n, dtype=np.int8)
    four_sigma = 4 * 0.5 / np.sqrt(n)

    # H measured in Z: always H
    det = measure_polarization(np.full(n, H, dtype=np.int8), gen, basis=z)
    assert np.all(det == H)
    # H measured in X: 50/50 D/A
    det = measure_polarization(np.full(n, H, dtype=np.int8), gen, basis=x)
    assert abs(np.mean(det == D) - 0.5) < four_sigma
    assert np.all((det == D) | (det == A))
    # D measured in Z: 50/50 H/V
    det = measure_polarization(np.full(n, D, dtype=np.int8), gen, basis=z)
    assert abs(np.mean(det == H) - 0.5) < four_sigma
    # D measured in X: always D
    det = measure_polarization(np.full(n, D, dtype=np.int8), gen, basis=x)
    assert np.all(det == D)
    # random basis: half the events land in each
    det = measure_polarization(np.full(n, V, dtype=np.int8), gen)
    assert abs(np.mean(detector_basis(det) == Z) - 0.5) < four_sigma


class _Uniforms:
    """Stands in for a Generator, handing out the given uniform draws in turn."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def random(self, n):
        u = self.draws.pop(0)
        assert u.size == n
        return u


def _measure_by_masks(s, in_z, coin):
    """measure_polarization as masked scatters: the reference its lookup
    table must reproduce."""
    det = np.empty(s.size, dtype=np.int8)
    det[in_z] = np.where(s[in_z] == D, np.where(coin[in_z] < 0.5, H, V), s[in_z])
    x = ~in_z
    det[x] = np.where(s[x] == D, D, np.where(coin[x] < 0.5, D, A))
    return det


def test_measure_polarization_table_matches_masked_reference_in_every_cell():
    # every (basis draw, state, coin) cell, with draws on either side of 0.5
    basis_u = np.array([0.0, 0.25, np.nextafter(0.5, 0.0), 0.5, 0.75])
    coin = np.array([0.0, 0.25, np.nextafter(0.5, 0.0), 0.5, 0.75, 1.0 - 2.0**-53])
    bu, s, c = (a.ravel() for a in np.meshgrid(
        basis_u, np.array([H, V, D], dtype=np.int8), coin, indexing="ij"))
    det = measure_polarization(s, _Uniforms(bu, c))
    assert det.dtype == np.int8
    assert np.array_equal(det, _measure_by_masks(s, bu < 0.5, c))
    # a forced basis draws only the coin
    for basis, in_z in (("Z", np.ones(s.size, bool)), ("X", np.zeros(s.size, bool)),
                        (np.where(bu < 0.5, Z, X), bu < 0.5)):
        det = measure_polarization(s, _Uniforms(c), basis=basis)
        assert np.array_equal(det, _measure_by_masks(s, in_z, c))
    # and a Philox stream, replayed for the reference
    sent = QubitPattern.from_seed(2).states(np.arange(100_000))
    det = measure_polarization(sent, np.random.default_rng(11))
    replay = np.random.default_rng(11)
    in_z = replay.random(sent.size) < 0.5
    assert np.array_equal(det, _measure_by_masks(sent, in_z, replay.random(sent.size)))


def test_measure_polarization_forced_basis_and_bad_inputs():
    gen = np.random.default_rng(1)
    assert measure_polarization(np.array([H, V]), gen, basis="Z").tolist() == [H, V]
    assert measure_polarization(np.array([D]), gen, basis="X").tolist() == [D]
    assert measure_polarization(np.array([V]), gen, basis="X")[0] in (D, A)
    with pytest.raises(ValueError, match="H, V or D"):
        measure_polarization(np.array([A]), gen)  # A is never sent
    with pytest.raises(ValueError, match="basis"):
        measure_polarization(np.array([H]), gen, basis="Q")
    with pytest.raises(ValueError, match="basis shape"):
        measure_polarization(np.array([H, V]), gen, basis=np.array([Z]))


def test_detector_basis_mapping():
    basis = detector_basis(np.array([H, V, D, A], dtype=np.int8))
    assert basis.dtype == np.int8
    assert basis.tolist() == [Z, Z, X, X]


# ------------------------------------------------------------------ time tags


def test_time_tag_jitter_and_quantization():
    gen = np.random.default_rng(3)
    n = 40_000
    truth = np.full(n, 1e-3)
    det = np.zeros(n, dtype=np.int8)
    ds = time_tag(truth, det, chain_jitter_sigma_s=425e-12,
                  tdc_resolution_s=81e-12, generator=gen)
    t = ds.times_s
    assert abs(t.std() - 425e-12) / 425e-12 < 0.03
    assert np.all(np.diff(ds.ticks) >= 0)  # sorted


def test_time_tag_rejects_negative_jitter():
    with pytest.raises(ValueError, match="chain_jitter_sigma_s"):
        time_tag(np.array([1e-3]), np.zeros(1, dtype=np.int8), chain_jitter_sigma_s=-1e-12,
                 tdc_resolution_s=81e-12, generator=np.random.default_rng(3))


def test_time_tag_drops_pre_epoch_events():
    gen = np.random.default_rng(3)
    truth = np.array([1e-12, 5e-8])  # first one will jitter below zero often
    for _ in range(20):
        ds = time_tag(truth, np.zeros(2, dtype=np.int8),
                      chain_jitter_sigma_s=1e-9, tdc_resolution_s=81e-12,
                      generator=gen)
        assert np.all(ds.ticks >= 0)


def test_time_tag_carries_ground_truth():
    gen = np.random.default_rng(5)
    ds = time_tag(
        np.array([3e-8, 1e-8]),
        np.array([D, H], dtype=np.int8),
        chain_jitter_sigma_s=0.0,
        tdc_resolution_s=81e-12,
        generator=gen,
        origin=np.array([ORIGIN_SIGNAL, ORIGIN_BACKGROUND], dtype=np.int8),
        slot=np.array([7, -1], dtype=np.int64),
    )
    # sorted by time: the 1e-8 event comes first
    assert ds.detector.tolist() == [H, D]
    assert ds.origin.tolist() == [ORIGIN_BACKGROUND, ORIGIN_SIGNAL]
    assert ds.slot.tolist() == [-1, 7]


def test_detection_set_select_keeps_resolution_and_drops_truth():
    ds = DetectionSet(ticks=np.array([5, 9, 12], dtype=np.int64),
                      detector=np.array([H, A, D], dtype=np.int8), tdc_resolution_s=81e-12,
                      origin=np.zeros(3, dtype=np.int8), slot=np.arange(3))
    for index in (slice(1, 3), np.array([1, 2])):
        sub = ds.select(index)
        assert sub.ticks.tolist() == [9, 12] and sub.detector.tolist() == [A, D]
        assert np.array_equal(sub.times_s, ds.times_s[1:])
        assert sub.origin is None and sub.slot is None


def test_detection_set_rejects_negative_ticks():
    with pytest.raises(ValueError):
        DetectionSet(ticks=np.array([-1]), detector=np.array([0], dtype=np.int8),
                     tdc_resolution_s=81e-12)


def test_detection_set_rejects_nonpositive_resolution():
    for res in (0.0, -81e-12):
        with pytest.raises(ValueError, match="TDC resolution"):
            DetectionSet(ticks=np.array([1]), detector=np.array([0], dtype=np.int8),
                         tdc_resolution_s=res)
