"""Stream derivation: each generator is Philox under its derived key."""

from __future__ import annotations

import numpy as np

from lda_lab import rng


def philox_state(bit_generator: np.random.Philox) -> list:
    state = bit_generator.state
    return [state["state"]["counter"].tolist(), state["state"]["key"].tolist(),
            state["buffer"].tolist(), state["buffer_pos"], state["has_uint32"], state["uinteger"]]


def test_generator_has_the_state_and_draws_of_philox_keyed_directly():
    keys = ([0, 1, 2**64 - 1, 2**64, 2**128 - 1] + [2**k for k in range(1, 128)]
            + [rng.derive_key(seed, "philox", seed % 7) for seed in range(300)])
    for key in keys:
        ours = np.random.Philox(rng._key_sequence()(key))
        oracle = np.random.Philox(key=key)
        assert philox_state(ours) == philox_state(oracle), key
        a, b = np.random.Generator(ours), np.random.Generator(oracle)
        assert a.random(3).tolist() == b.random(3).tolist()
        assert a.integers(0, 2**63, size=3).tolist() == b.integers(0, 2**63, size=3).tolist()
    # The stream of a derived key, drawn through the public entry point.
    assert (rng.generator(5, "noise", 2).random(4).tolist()
            == np.random.Generator(np.random.Philox(key=rng.derive_key(5, "noise", 2))).random(4).tolist())
