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

Counter-based draws, like the per-event stages of `simulate` and
`qkd_analysis`, run `BLOCK_EVENTS` events at a time, and the sync
pulses are synthesized an eighth of that at a time, into windows of a
run's trains (`simulate.sync_windows`).  Every step is elementwise (or
draws a sequential stream in order, or carries the last locked pulse's
reading forward), and counts over blocks of sorted events add, so
blocks give the bits of one whole-array pass.

A draw computes each block in place, in the order of the whole-array
expressions (`tests/test_rng.py` pins the bits), in the result block
and two uint64 scratch rows that each thread keeps.  A normal at index i
hashes the counter key + (2i + 1) * golden and that counter plus golden
(mod 2^64).
"""

from __future__ import annotations

import functools
import hashlib
import threading

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


def _mix64(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer of the uint64 block z in place; tmp is scratch."""
    for shift, mult in ((30, _MIX1), (27, _MIX2)):
        z ^= np.right_shift(z, np.uint64(shift), out=tmp)
        z *= mult
    z ^= np.right_shift(z, np.uint64(31), out=tmp)
    return z


def _counters(key: int, index, out: np.ndarray, scale: int = 1) -> np.ndarray:
    """key + (scale * index + 1) * golden per index, mod 2^64, into out."""
    np.copyto(out, index, casting="unsafe")
    out *= np.uint64(scale * int(_GOLDEN) % 2**64)
    out += np.uint64((int(_GOLDEN) + key) % 2**64)
    return out


# each thread's two uint64 scratch rows, kept between calls (the importing
# thread's from import on): rows allocated per call fault their pages in again
_local = threading.local()
_local.rows = np.empty((2, BLOCK_EVENTS), dtype=np.uint64)


def _blockwise(draw):
    """draw(key, index, out, scratch) on BLOCK_EVENTS indices at a time; any index shape."""
    @functools.wraps(draw)
    def blocked(key: int, index):
        idx = np.asarray(index)
        flat = idx.reshape(-1)
        out = np.empty(flat.size)
        rows = getattr(_local, "rows", None)  # None in another thread's first call
        if rows is None or rows.shape[1] < min(flat.size, BLOCK_EVENTS):
            rows = _local.rows = np.empty((2, BLOCK_EVENTS), dtype=np.uint64)
        with np.errstate(over="ignore"):
            for lo in range(0, flat.size, BLOCK_EVENTS):
                block = out[lo:lo + BLOCK_EVENTS]
                draw(key, flat[lo:lo + BLOCK_EVENTS], block, rows[:, :block.size])
        return out.reshape(idx.shape)[()]  # [()] makes a 0-d result a scalar
    del blocked.__wrapped__  # its signature is (key, index), not draw's
    return blocked


@_blockwise
def uniform_at(key: int, index, out, scratch):
    """Uniform variate in [0, 1) for each integer index."""
    z = _mix64(_counters(key, index, scratch[0]), out.view(np.uint64))
    np.multiply(np.right_shift(z, np.uint64(11), out=z), _U53_INV, out=out)


@_blockwise
def normal_at(key: int, index, out, scratch):
    """Standard normal variate for each integer index (Box-Muller)."""
    z, odd = _counters(key, index, scratch[0], scale=2), scratch[1]  # of hash index 2i
    np.add(z, _GOLDEN, out=odd)  # the counter of hash index 2i + 1
    np.right_shift(_mix64(z, out.view(np.uint64)), np.uint64(11), out=z)
    np.add(z, 1.0, out=out)
    out *= _U53_INV  # u1 in (0, 1], keeps log finite
    np.right_shift(_mix64(odd, z), np.uint64(11), out=odd)
    u2 = np.multiply(odd, _U53_INV, out=z.view(np.float64))
    np.log(out, out=out)
    out *= -2.0
    np.sqrt(out, out=out)
    u2 *= 2.0 * np.pi
    np.cos(u2, out=u2)
    out *= u2


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
