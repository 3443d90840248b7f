"""Prime selection, centered representatives and inverses in GF(p)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from lda_lab.fieldcore import (
    centered_rep,
    is_prime,
    nearest_prime,
)
from lda_lab.gfmatrix import GfMatrix, NoSolutionError, _rref_stack, solve


def sieve(limit: int) -> list[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = b"\x00" * len(flags[i * i :: i])
    return [i for i, f in enumerate(flags) if f]


PRIMES_10K = sieve(10_000)


def test_is_prime_matches_sieve():
    prime_set = set(PRIMES_10K)
    for n in range(10_000):
        assert is_prime(n) == (n in prime_set)


def test_is_prime_large_values():
    assert is_prime(2**61 - 1)  # Mersenne prime
    assert not is_prime(2**61 - 3)
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7


@pytest.mark.parametrize(
    "x,expected",
    [
        (7.0, 7),  # already prime
        (100.0, 101),  # 101 at distance 1 beats 97 at distance 3
        (64.0**1.2, 149),  # ~147.03: 149 at ~1.97 beats 139 at ~8.03
        (2.0, 2),
    ],
)
def test_nearest_prime_examples(x, expected):
    assert nearest_prime(x) == expected


def test_nearest_prime_tie_breaks_upward():
    # 4 is equidistant from 3 and 5; 12 from 11 and 13.
    assert nearest_prime(4.0) == 5
    assert nearest_prime(12.0) == 13


def test_nearest_prime_matches_sieve_oracle_to_1e6():
    import bisect
    import random

    primes = sieve(1_000_000)
    rnd = random.Random(7)
    for _ in range(300):
        x = rnd.uniform(2.0, 990_000.0)
        i = bisect.bisect_left(primes, x)
        window = primes[max(0, i - 3) : i + 3]
        best = min(window, key=lambda q: (abs(q - x), -q))
        assert nearest_prime(x) == best


def test_field_params_nearest_to():
    # The field for n = 64 at lambda = 1.2: the prime nearest 64^1.2, and the
    # exponent it realizes, log p / log n.
    p = nearest_prime(64.0**1.2)
    assert p == 149
    assert is_prime(p)
    assert abs(math.log(p) / math.log(64) - 1.2) < 0.01


def test_nearest_prime_domain():
    with pytest.raises(ValueError):
        nearest_prime(1.5)


@pytest.mark.parametrize("z,p,expected", [(0, 5, 0), (7, 5, 2), (3, 5, -2)])
def test_centered_rep_examples(z, p, expected):
    assert centered_rep(z, p) == expected


@pytest.mark.parametrize("p", [3, 5, 7, 11, 31, 101])
def test_centered_rep_bijection(p):
    images = {centered_rep(z, p) for z in range(p)}
    half = (p - 1) // 2
    assert images == set(range(-half, half + 1))
    for z in range(p):
        assert (centered_rep(z, p) - z) % p == 0
        assert abs(centered_rep(z, p)) <= half


def test_centered_rep_rejects_even_modulus():
    with pytest.raises(ValueError):
        centered_rep(1, 2)


# Inverses in GF(p) are taken where the row reduction scales a pivot row:
# the system a x = 1 solves to x = a^-1, and one stacked pass reduces each
# [a 1] to [1 a^-1].


def test_field_ops_examples():
    assert solve(GfMatrix(np.array([[1]]), 7), np.array([1])).tolist() == [1]
    assert solve(GfMatrix(np.array([[3]]), 7), np.array([1])).tolist() == [5]  # 3*5 = 15 = 1 mod 7


@pytest.mark.parametrize("p", [q for q in PRIMES_10K if q <= 101])
def test_inverse_exhaustive(p):
    nonzero = np.arange(1, p)
    stack = np.stack([nonzero, np.ones_like(nonzero)], axis=1)[:, None, :]
    for a, (red, pivots) in zip(nonzero.tolist(), _rref_stack(stack, p), strict=True):
        assert pivots == [0] and red[0, 0] == 1
        assert (a * int(red[0, 1])) % p == 1


def test_inverse_of_zero_is_domain_error():
    with pytest.raises(NoSolutionError):
        solve(GfMatrix(np.zeros((1, 1), dtype=np.int64), 7), np.array([1]))
