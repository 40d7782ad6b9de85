"""Deterministic randomness utilities.

Two kinds of generators are used throughout the simulator:

* Stream generators (`generator`) are numpy Philox generators, one per
  named sub-stream of a run seed.  Used where draws are consumed
  sequentially (thinning gaps, Poisson noise counts, measurement, ...).

* Counter-based draws (`uniform_at`, `normal_at`, `choice_at`) map an
  (key, index) pair straight to a variate via a splitmix64 hash.  These
  give random access: the value attached to qubit slot ``m`` can be
  recomputed for any sparse subset of slots without generating the
  slots in between.  The transmitted state pattern and all per-event
  jitters are keyed this way, so the sparse detection sampler gives each
  slot exactly the state and timing of a dense pass over every slot
  (`tests/dense_reference.py`, checked in `tests/test_sampling.py`).

Counter-based draws, like the per-event stages of `simulate`,
`quantum_link.time_tag`, `classical_link.synthesize_sync_train`,
`sync_recovery.fold_histogram` and `qkd_analysis`, run `BLOCK_EVENTS`
events at a time.  Every step is elementwise (or draws a sequential
stream in order), and counts over blocks of sorted events add, so
blocks give the bits of one whole-array pass.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U53_INV = float(2.0**-53)

BLOCK_EVENTS = 1 << 15  # events per block: 256 kB per float64 temporary


def derive_key(seed: int, stream: str) -> int:
    """Stable 64-bit key for a named sub-stream of `seed`."""
    payload = f"{seed}:{stream}".encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "little")


def _mix64(z: np.ndarray) -> np.ndarray:
    # splitmix64 finalizer; z is uint64 and wraps mod 2^64 by construction
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))


def _hash_at(key: int, index) -> np.ndarray:
    idx = np.asarray(index, dtype=np.uint64)
    with np.errstate(over="ignore"):
        counter = np.uint64(key) + (idx + np.uint64(1)) * _GOLDEN
    return _mix64(counter)


def _blockwise(draw):
    """draw(key, index) run BLOCK_EVENTS indices at a time; any index shape."""
    @functools.wraps(draw)
    def blocked(key: int, index):
        idx = np.asarray(index)
        flat = idx.reshape(-1)
        out = np.empty(flat.size)
        for lo in range(0, flat.size, BLOCK_EVENTS):
            out[lo:lo + BLOCK_EVENTS] = draw(key, flat[lo:lo + BLOCK_EVENTS])
        return out.reshape(idx.shape)[()]  # [()] makes a 0-d result a scalar
    return blocked


@_blockwise
def uniform_at(key: int, index):
    """Uniform variate in [0, 1) for each integer index."""
    bits = _hash_at(key, index)
    return (bits >> np.uint64(11)).astype(np.float64) * _U53_INV


@_blockwise
def normal_at(key: int, index):
    """Standard normal variate for each integer index (Box-Muller)."""
    idx = np.asarray(index, dtype=np.uint64)
    with np.errstate(over="ignore"):
        even = idx * np.uint64(2)
        odd = even + np.uint64(1)
    u1 = (_hash_at(key, even) >> np.uint64(11)).astype(np.float64)
    u2 = (_hash_at(key, odd) >> np.uint64(11)).astype(np.float64)
    u1 = (u1 + 1.0) * _U53_INV  # (0, 1], keeps log finite
    u2 = u2 * _U53_INV
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def choice_at(key: int, index, probabilities) -> np.ndarray:
    """Categorical draw per index; returns int8 codes 0..k-1."""
    cum = np.cumsum(np.asarray(probabilities, dtype=np.float64))
    u = uniform_at(key, index)
    code = np.zeros(np.shape(u), dtype=np.int8)
    for edge in cum:  # counts the edges <= u, as searchsorted(side="right")
        code += u >= edge
    return code


def generator(seed: int, stream: str) -> np.random.Generator:
    """Philox generator for a named sequential sub-stream of `seed`."""
    return np.random.Generator(np.random.Philox(key=derive_key(seed, stream)))
