"""Determinism and distribution sanity of the seeded RNG utilities."""

from concurrent.futures import ThreadPoolExecutor

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


def _splitmix_reference(key, index):
    """The splitmix64 hash of every index in one whole-array pass."""
    idx = np.asarray(index, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = np.uint64(key) + (idx + np.uint64(1)) * np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def _uniform_reference(key, index):
    return (_splitmix_reference(key, index) >> np.uint64(11)).astype(np.float64) * 2.0**-53


def _normal_reference(key, index):
    """Box-Muller over the whole index array at once."""
    idx = np.asarray(index, dtype=np.uint64)
    with np.errstate(over="ignore"):
        even = idx * np.uint64(2)
        odd = even + np.uint64(1)
    u1 = (_splitmix_reference(key, even) >> np.uint64(11)).astype(np.float64)
    u2 = (_splitmix_reference(key, odd) >> np.uint64(11)).astype(np.float64)
    u1 = (u1 + 1.0) * 2.0**-53
    u2 = u2 * 2.0**-53
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def _assert_same_bits(got, want):
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).dtype == np.asarray(want).dtype
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


B = rng.BLOCK_EVENTS


@pytest.mark.parametrize("size", [0, 1, B - 1, B, B + 1, 3 * B + 7])
@pytest.mark.parametrize("dtype", [np.int64, np.uint64])
def test_blocked_draws_equal_one_whole_array_pass(size, dtype):
    key = rng.derive_key(17, "blocks")
    # scattered indices; the uint64 ones reach past 2^63
    start = 2**63 + 5 if dtype == np.uint64 else 3
    index = np.arange(size, dtype=dtype) * dtype(7919) + dtype(start)
    wide = np.repeat(index, 3)
    keep = np.arange(wide.size) % 3 == 0
    # as given, as a boolean-mask gather (what b[lk] gives), and as a strided view
    for view in (index, wide[keep], wide[::3]):
        _assert_same_bits(rng.uniform_at(key, view), _uniform_reference(key, index))
        _assert_same_bits(rng.normal_at(key, view), _normal_reference(key, index))
    assert size < 2 or not wide[::3].flags.c_contiguous
    probs = (0.25, 0.25, 0.5)
    codes = np.searchsorted(np.cumsum(probs), _uniform_reference(key, index),
                            side="right").astype(np.int8)
    _assert_same_bits(rng.choice_at(key, index, probs), codes)


def test_threads_draw_through_their_own_scratch_rows():
    # numpy releases the GIL inside each step, so scratch rows shared between
    # threads would mix their draws; each task has its own key
    index = np.arange(4 * B, dtype=np.int64) * 7

    def draw(task):
        key = rng.derive_key(task, "threads")
        return rng.normal_at(key, index), _normal_reference(key, index)

    with ThreadPoolExecutor(max_workers=4) as pool:
        for got, want in pool.map(draw, range(12), timeout=120):
            _assert_same_bits(got, want)


@pytest.mark.parametrize("index", [12345, np.int64(12345), np.uint64(2**63 + 1)])
def test_blocked_draws_of_a_scalar_index_are_scalars(index):
    key = rng.derive_key(18, "scalar")
    for draw, reference in ((rng.uniform_at, _uniform_reference),
                            (rng.normal_at, _normal_reference)):
        got = draw(key, index)
        assert np.ndim(got) == 0
        _assert_same_bits(got, reference(key, index))


def test_blocked_draws_keep_a_2d_index_shape():
    # the shift x pair index array of the anchor scan spans several blocks
    key = rng.derive_key(19, "grid")
    index = np.arange(3 * (B + 5), dtype=np.int64).reshape(3, B + 5) * 11
    _assert_same_bits(rng.uniform_at(key, index), _uniform_reference(key, index))
    _assert_same_bits(rng.normal_at(key, index), _normal_reference(key, index))
