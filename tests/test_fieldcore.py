"""Prime selection and scalar field arithmetic."""

from __future__ import annotations

import math

import pytest

from lda_lab.fieldcore import (
    FieldParams,
    centered_rep,
    field_inv,
    is_prime,
    nearest_prime,
)


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


def test_field_ops_examples():
    assert field_inv(1, 7) == 1
    assert field_inv(3, 7) == 5  # 3*5 = 15 = 1 mod 7


@pytest.mark.parametrize("p", [q for q in PRIMES_10K if q <= 101])
def test_inverse_exhaustive(p):
    for a in range(1, p):
        assert (a * field_inv(a, p)) % p == 1


def test_inverse_of_zero_is_domain_error():
    with pytest.raises(ZeroDivisionError):
        field_inv(0, 7)


def test_field_params_nearest_to():
    fp = FieldParams.nearest_to(64, 1.2)
    assert fp.p == 149
    assert abs(fp.realized_lambda - math.log(149) / math.log(64)) < 1e-12


def test_field_params_rejects_composite():
    with pytest.raises(ValueError):
        FieldParams.explicit(100)
