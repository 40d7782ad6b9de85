"""Determinism and distribution sanity of the seeded RNG utilities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdsync import rng


def test_derive_key_is_stable_and_stream_separated():
    k1 = rng.derive_key(42, "alpha")
    assert k1 == rng.derive_key(42, "alpha")
    assert k1 != rng.derive_key(42, "beta")
    assert k1 != rng.derive_key(43, "alpha")
    assert 0 <= k1 < 2**64


def test_uniform_at_is_random_access_consistent():
    key = rng.derive_key(7, "u")
    dense = rng.uniform_at(key, np.arange(1000))
    sparse = rng.uniform_at(key, np.array([3, 17, 991]))
    assert np.array_equal(sparse, dense[[3, 17, 991]])


def test_uniform_at_moments():
    key = rng.derive_key(11, "u")
    u = rng.uniform_at(key, np.arange(200_000))
    assert np.all((u >= 0) & (u < 1))
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1 / 12) < 0.002


def test_normal_at_moments_and_determinism():
    key = rng.derive_key(3, "n")
    x = rng.normal_at(key, np.arange(200_000))
    assert abs(x.mean()) < 0.01
    assert abs(x.std() - 1.0) < 0.01
    assert abs(float(np.mean(x**3))) < 0.05  # symmetric
    again = rng.normal_at(key, np.arange(200_000))
    assert np.array_equal(x, again)


def test_normal_at_streams_are_independent():
    a = rng.normal_at(rng.derive_key(3, "s1"), np.arange(50_000))
    b = rng.normal_at(rng.derive_key(3, "s2"), np.arange(50_000))
    assert abs(float(np.corrcoef(a, b)[0, 1])) < 0.02


def test_choice_at_frequencies():
    key = rng.derive_key(5, "c")
    codes = rng.choice_at(key, np.arange(100_000), (0.25, 0.25, 0.5))
    freq = np.bincount(codes, minlength=3) / codes.size
    assert np.allclose(freq, [0.25, 0.25, 0.5], atol=0.01)
    assert codes.dtype == np.int8


def _choice_by_binary_search(u, probabilities):
    """choice_at's code as a binary search: the reference its edge count must reproduce."""
    cum = np.cumsum(np.asarray(probabilities, dtype=np.float64))
    return np.searchsorted(cum, u, side="right").astype(np.int8)


def test_choice_at_counts_edges_like_a_binary_search(monkeypatch):
    key = rng.derive_key(6, "edges")
    index = np.arange(50_000)
    u = rng.uniform_at(key, index)
    # edges placed exactly on drawn variates, beside an empty state
    for probs in ((u[3], 0.0, 1.0 - u[3]), (0.0, u[5], 1.0 - u[5]),
                  (u[7], 1.0 - u[7], 0.0), (0.25, 0.25, 0.5)):
        codes = rng.choice_at(key, index, probs)
        assert codes.dtype == np.int8
        assert np.array_equal(codes, _choice_by_binary_search(u, probs))
    assert rng.choice_at(key, index, (u[3], 0.0, 1.0 - u[3]))[3] == 2
    # variates on, one ulp below and one ulp above every edge, and the ends of [0, 1)
    probs = (0.25, 0.0, 0.25, 0.5)
    edges = np.cumsum(probs)
    on_edges = np.concatenate([[0.0, 1.0 - 2.0**-53], edges,
                               np.nextafter(edges, 0.0), np.nextafter(edges, 2.0)])
    monkeypatch.setattr(rng, "uniform_at", lambda key, index: on_edges)
    assert np.array_equal(rng.choice_at(key, None, probs),
                          _choice_by_binary_search(on_edges, probs))


def test_generator_streams_reproducible():
    g1 = rng.generator(9, "noise")
    g2 = rng.generator(9, "noise")
    assert np.array_equal(g1.random(100), g2.random(100))
    g3 = rng.generator(9, "other")
    assert not np.array_equal(rng.generator(9, "noise").random(100), g3.random(100))


@given(st.integers(min_value=0, max_value=2**63), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=50, deadline=None)
def test_uniform_at_in_unit_interval(seed, index):
    u = float(rng.uniform_at(rng.derive_key(seed, "h"), index))
    assert 0.0 <= u < 1.0


@given(st.lists(st.integers(min_value=0, max_value=2**40), min_size=1, max_size=20))
@settings(max_examples=50, deadline=None)
def test_normal_at_elementwise_matches_scalar(indices):
    key = rng.derive_key(1, "elem")
    vec = rng.normal_at(key, np.asarray(indices, dtype=np.uint64))
    for i, idx in enumerate(indices):
        assert float(vec[i]) == float(rng.normal_at(key, idx))


def test_choice_at_rejects_nothing_but_covers_all_codes():
    key = rng.derive_key(2, "cov")
    codes = rng.choice_at(key, np.arange(10_000), (0.01, 0.01, 0.98))
    assert set(np.unique(codes)) == {0, 1, 2}


def test_uniform_at_scalar_vs_array_dtype():
    key = rng.derive_key(4, "sc")
    scalar = rng.uniform_at(key, 12)
    arr = rng.uniform_at(key, np.array([12]))
    assert float(scalar) == float(arr[0])


def test_large_indices_do_not_collide():
    # indices far apart in a 2^64 space must still decorrelate
    key = rng.derive_key(8, "big")
    idx = np.array([0, 2**62, 2**63 - 1], dtype=np.uint64)
    vals = rng.uniform_at(key, idx)
    assert len(np.unique(vals)) == 3


def test_seed_sensitivity():
    with_seed_1 = rng.uniform_at(rng.derive_key(1, "s"), np.arange(64))
    with_seed_2 = rng.uniform_at(rng.derive_key(2, "s"), np.arange(64))
    assert not np.array_equal(with_seed_1, with_seed_2)


def test_choice_at_bad_probabilities_rejected_by_callers():
    # choice_at itself trusts its input; the public entry points validate.
    from qkdsync.quantum_link import QubitPattern

    with pytest.raises(ValueError):
        QubitPattern.from_seed(1, (0.5, 0.5, 0.5))
    with pytest.raises(ValueError):
        QubitPattern.from_seed(1, (0.5, 0.5))
