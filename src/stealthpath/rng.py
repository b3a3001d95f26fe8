"""Deterministic seed derivation for reproducible, order-independent sampling.

Every stochastic operation in this package takes an explicit 64-bit seed.
Sub-streams are derived by hashing (seed, label, indices), so parallel or
reordered execution cannot change which random numbers a given operation sees.

`Streams` draws from the streams of many keys at once and gives, key for key,
the numbers `Generator(Philox(key=k))` gives, without building a Generator
per key.
"""
from __future__ import annotations

import hashlib

import numpy as np


def derive_seed(seed: int, label: str, *indices: int) -> int:
    """Derive a 64-bit sub-stream seed from (seed, label, indices)."""
    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(seed)).encode())
    h.update(b"/")
    h.update(str(label).encode())
    for i in indices:
        h.update(b"/")
        h.update(str(int(i)).encode())
    return int.from_bytes(h.digest(), "big")


def generator(seed: int, label: str = "root", *indices: int) -> np.random.Generator:
    """Counter-based generator keyed by the derived sub-stream seed."""
    return np.random.Generator(np.random.Philox(key=derive_seed(seed, label, *indices)))


# One Philox bit generator serves every stream: a stream's state is loaded
# into it before each draw and read back after. That costs ~3 µs a draw;
# building Generator(Philox(key=k)) costs ~10 µs, half of it gathering OS
# entropy for a seed sequence that the key then overrides (2-core VM). The
# package draws from one thread, so the shared bit generator needs no lock.
_BITS = np.random.Philox(0)
_DRAW = np.random.Generator(_BITS)


class Streams:
    """The streams of `Generator(Philox(key=k))` for many keys.

    `random(n)` and `integers(high, n)` return keys.shape + (n,) arrays whose
    entry for each key is what that key's Generator returns for the same
    sequence of calls: each key keeps its own Philox state, and numpy draws
    every number.
    """

    def __init__(self, keys):
        keys = np.asarray(keys)
        self._shape = keys.shape
        self._states = [{"bit_generator": "Philox",
                         "state": {"counter": [0, 0, 0, 0], "key": [k, 0]},
                         "buffer": [0, 0, 0, 0], "buffer_pos": 4,
                         "has_uint32": 0, "uinteger": 0}
                        for k in keys.astype(np.uint64).ravel().tolist()]

    def _each(self, draw, dtype, n: int, *args) -> np.ndarray:
        rows = []
        for r, state in enumerate(self._states):
            _BITS.state = state
            rows.append(draw(*args, n))
            self._states[r] = _BITS.state
        return np.array(rows, dtype=dtype).reshape(self._shape + (n,))

    def random(self, n: int) -> np.ndarray:
        """Doubles in [0, 1), as Generator.random(n)."""
        return self._each(_DRAW.random, np.float64, n)

    def integers(self, high: int, n: int) -> np.ndarray:
        """Integers in [0, high), as Generator.integers(0, high, size=n)."""
        return self._each(_DRAW.integers, np.int64, n, 0, high)


def streams(seeds, label: str) -> Streams:
    """`generator(s, label)` for each of `seeds` (a scalar or an array), as one Streams."""
    seeds = np.asarray(seeds, dtype=object)
    keys = [derive_seed(s, label) for s in seeds.ravel()]
    return Streams(np.array(keys, dtype=np.uint64).reshape(seeds.shape))
