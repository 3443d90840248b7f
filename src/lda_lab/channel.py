"""AWGN channel model and the rate/SNR bookkeeping around it.

Conventions: P is the power constraint per dimension, sigma2 the noise
variance per dimension, snr = P/sigma2.  MMSE scaling by the Wiener
coefficient alpha = P/(P + sigma2) shrinks the effective decoding noise
to sigma_dec^2 = P sigma2 / (P + sigma2) = alpha sigma2, which is what
makes rates up to (1/2) log2(1 + snr) reachable by a lattice decoder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import rng

TWO_PI_E = 2.0 * math.pi * math.e


def capacity(snr: float) -> float:
    """AWGN capacity (1/2) log2(1 + snr) in bits per dimension."""
    if snr <= 0:
        raise ValueError("snr must be positive")
    return 0.5 * math.log2(1.0 + snr)


def wiener(P: float, sigma2: float) -> float:
    """MMSE scaling coefficient alpha = P / (P + sigma2)."""
    if P <= 0 or sigma2 <= 0:
        raise ValueError("P and sigma2 must be positive")
    return P / (P + sigma2)


def effective_noise_variance(P: float, sigma2: float) -> float:
    """Per-dimension variance of the post-scaling effective noise."""
    return P * sigma2 / (P + sigma2)


def sigma_max(P: float, M: float, n: int) -> float:
    """Largest noise variance with the constellation rate below capacity:
    sigma2 < P / (M^(2/n) - 1)."""
    if M < 2:
        raise ValueError("need at least 2 codebook points")
    return P / (M ** (2.0 / n) - 1.0)


def sigma_pol(p: int, R_f) -> float:
    """Poltyrev limit of the infinite fine constellation: p^(2(1-R_f))/(2 pi e)."""
    return float(p) ** (2.0 * (1.0 - float(R_f))) / TWO_PI_E


def default_power(p: int, R) -> float:
    """Nominal power constraint p^(2(1-R)) / (2 pi e); the realized average
    codebook power is measured separately and reported alongside."""
    return float(p) ** (2.0 * (1.0 - float(R))) / TWO_PI_E


def decoding_radius(n: int, p: int, R_f, delta: float, eps: float) -> float:
    """sqrt(n) p^(1-R_f) (1 - delta)(1 + eps) / sqrt(2 pi e)."""
    if not 0 < delta < 1 or eps <= 0:
        raise ValueError("need 0 < delta < 1 and eps > 0")
    return math.sqrt(n) * float(p) ** (1.0 - float(R_f)) * (1.0 - delta) * (1.0 + eps) / math.sqrt(
        TWO_PI_E
    )


def awgn_transmit(x: np.ndarray, sigma: float, noise_seed: int) -> np.ndarray:
    """y = x + w, w ~ N(0, sigma^2 I), deterministic in noise_seed."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    x = np.asarray(x, dtype=float)
    return x + rng.gaussian(noise_seed, "awgn", size=x.shape[0], sigma=sigma)


@dataclass(frozen=True)
class RatePlan:
    """A rate choice targeting a fraction gamma of capacity.

    delta_margin is the (1 - delta) headroom factor with which the
    effective noise clears the Poltyrev level of the fine lattice:
    alpha sigma^2 < p^(2(1-R_f)) (1-delta)^2 / (2 pi e) holds strictly.
    """

    gamma: float
    ell: int
    R: Fraction
    R_f: Fraction
    required_p_power: float  # (1 + snr)^(gamma/2), the target for p^(R_f-R)
    realized_rate: float  # (R_f - R) log2 p, bits per dimension
    delta_margin: float

    @property
    def one_minus_delta(self) -> float:
        return 1.0 - self.delta_margin


def plan_rates(n: int, p: int, snr: float, gamma: float, R: Fraction) -> RatePlan:
    """Pick the largest message length ell with rate at most gamma * capacity.

    Raises when even ell = 1 overshoots the target rate or when the
    resulting effective noise would not clear the Poltyrev level.
    """
    if not 0 < gamma < 1:
        raise ValueError("gamma must lie in (0, 1)")
    cap = capacity(snr)
    target_bits = gamma * cap * n
    ell = int(math.floor(target_bits / math.log2(p)))
    if ell < 1:
        raise ValueError(f"no integer message length fits below gamma*C: {target_bits:.3f} bits")
    R_f = R + Fraction(ell, n)
    if R_f >= 1:
        raise ValueError(f"R_f = {R_f} >= 1; lower gamma or raise p")
    P = default_power(p, R)
    sigma2 = P / snr
    ratio = effective_noise_variance(P, sigma2) / sigma_pol(p, R_f)
    if ratio >= 1.0:
        raise ValueError(f"effective noise exceeds the Poltyrev level (ratio {ratio:.3f})")
    # Take half the available headroom so the recorded inequality is strict.
    delta = (1.0 - math.sqrt(ratio)) / 2.0
    return RatePlan(
        gamma=gamma,
        ell=ell,
        R=R,
        R_f=R_f,
        required_p_power=(1.0 + snr) ** (gamma / 2.0),
        realized_rate=ell * math.log2(p) / n,
        delta_margin=delta,
    )
