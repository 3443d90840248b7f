"""Prime selection and GF(p) scalar arithmetic.

Elements of GF(p) are plain Python ints in ``{0, ..., p-1}``.  The
centered representative convention maps a residue class to its element
of smallest absolute value, which exists uniquely for odd p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Deterministic Miller-Rabin witness set, sufficient for all n < 3.3e24
# (covers every 64-bit integer).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n < 2**64."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n == q:
            return True
        if n % q == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


def nearest_prime(x: float) -> int:
    """Prime minimizing |p - x|, ties broken toward the larger prime.

    Requires x >= 2; a result always exists by Bertrand's postulate.
    """
    if x < 2:
        raise ValueError(f"nearest_prime requires x >= 2, got {x}")
    lo = math.floor(x)
    hi = math.ceil(x)
    if lo == hi:
        if is_prime(lo):
            return lo
        hi = lo + 1
        lo = lo - 1
    while True:
        # Test the closer candidate first; prefer the upper one on ties,
        # so the first prime found is the answer.
        if lo < 2 or hi - x <= x - lo:
            if is_prime(hi):
                return hi
            hi += 1
        else:
            if is_prime(lo):
                return lo
            lo -= 1


@dataclass(frozen=True)
class FieldParams:
    """A certified prime modulus and how it was chosen."""

    p: int
    source: str  # "explicit" or "nearest_to"
    n: int | None = None
    lam: float | None = None

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    @classmethod
    def explicit(cls, p: int) -> "FieldParams":
        return cls(p=p, source="explicit")

    @classmethod
    def nearest_to(cls, n: int, lam: float) -> "FieldParams":
        """p = closest prime to n**lam (ties upward)."""
        return cls(p=nearest_prime(float(n) ** lam), source="nearest_to", n=n, lam=lam)

    @property
    def realized_lambda(self) -> float | None:
        """log_n(p) for the pinned prime; None for explicit primes."""
        if self.n is None:
            return None
        return math.log(self.p) / math.log(self.n)


def centered_rep(z: int, p: int) -> int:
    """Representative of z mod p with smallest absolute value.

    Only defined for odd p: for p = 2 the residue 1 has no representative
    of absolute value <= (p-1)/2.
    """
    if p < 2 or p % 2 == 0:
        raise ValueError(f"centered representative requires an odd modulus, got p={p}")
    r = z % p
    if r > (p - 1) // 2:
        r -= p
    return r


def field_inv(a: int, p: int) -> int:
    a = a % p
    if a == 0:
        raise ZeroDivisionError("0 has no inverse in GF(p)")
    return pow(a, p - 2, p)
