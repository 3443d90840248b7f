"""Deterministic stream derivation and Gaussian sampling.

Every random draw in the lab comes from a counter-based Philox generator
keyed by a hash of ``(master_seed, *stream_parts)``.  A trial's message,
noise, and ensemble streams are therefore independent of each other and
of worker scheduling: any single trial can be regenerated in isolation.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np


def derive_key(master_seed: int, *parts: object) -> int:
    """Hash (master_seed, parts) into a 128-bit Philox key."""
    material = repr((int(master_seed),) + tuple(str(p) for p in parts))
    digest = hashlib.blake2b(material.encode(), digest_size=16).digest()
    return int.from_bytes(digest, "little")


@functools.cache
def _key_sequence() -> type:
    """The seed sequence that hands over a fixed key as its state words, low
    word first.  Philox seeds its 128-bit key from ``generate_state(2,
    np.uint64)``, so ``Philox(_key_sequence()(k))`` has the state of
    ``Philox(key=k)``, without the OS-entropy ``SeedSequence`` that
    ``Philox(key=k)`` draws and then discards.  The type is made on first
    use, so importing the package does not import ``numpy.random``."""
    from numpy.random.bit_generator import ISeedSequence

    class KeySequence(ISeedSequence):
        def __init__(self, key: int):
            self.key = key

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            bits = 8 * np.dtype(dtype).itemsize
            mask = (1 << bits) - 1
            return np.array([(self.key >> (bits * i)) & mask for i in range(n_words)], dtype=dtype)

    return KeySequence


def generator(master_seed: int, *parts: object) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(_key_sequence()(derive_key(master_seed, *parts))))


def gaussian(master_seed: int, *parts: object, size: int, sigma: float = 1.0) -> np.ndarray:
    """Standard-normal draws via Box-Muller on Philox uniforms.

    Box-Muller on explicitly generated uniforms keeps the sample a pure
    function of the derived key, independent of numpy's internal normal
    algorithm.
    """
    gen = generator(master_seed, *parts)
    half = (size + 1) // 2
    # 1 - U maps [0, 1) to (0, 1]; log(0) never occurs.
    u1 = 1.0 - gen.random(half)
    u2 = gen.random(half)
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    z = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:size]
    return sigma * z
