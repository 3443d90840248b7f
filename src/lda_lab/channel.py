"""AWGN channel model and the rate/SNR bookkeeping around it.

Conventions: P is the power constraint per dimension, sigma2 the noise
variance per dimension, snr = P/sigma2.  MMSE scaling by the Wiener
coefficient alpha = P/(P + sigma2) shrinks the effective decoding noise
to sigma_dec^2 = P sigma2 / (P + sigma2) = alpha sigma2, which is what
makes rates up to (1/2) log2(1 + snr) reachable by a lattice decoder.
"""

from __future__ import annotations

import math

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


def default_power(p: int, R) -> float:
    """Nominal power constraint p^(2(1-R)) / (2 pi e); the realized average
    codebook power is measured separately and reported alongside.  At the
    fine rate R_f it is the Poltyrev level of the fine lattice."""
    return float(p) ** (2.0 * (1.0 - float(R))) / TWO_PI_E


def noise_variance(P: float, snr_db: float) -> float:
    """Noise variance per dimension at snr_db dB: sigma2 = P / 10^(snr_db / 10).
    An SNR that is not finite, or whose sigma2 is not a positive finite
    float, raises ValueError naming it."""
    if not math.isfinite(snr_db):
        raise ValueError(f"snr_db = {snr_db} is not finite")
    try:
        sigma2 = P / 10.0 ** (snr_db / 10.0)
    except (OverflowError, ZeroDivisionError):
        sigma2 = 0.0
    if not 0.0 < sigma2 < math.inf:
        raise ValueError(f"snr_db = {snr_db} puts the noise variance out of float range")
    return sigma2


def awgn_transmit(x: np.ndarray, sigma: float, noise_seed: int) -> np.ndarray:
    """y = x + w, w ~ N(0, sigma^2 I), deterministic in noise_seed."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    x = np.asarray(x, dtype=float)
    return x + rng.gaussian(noise_seed, "awgn", size=x.shape[0], sigma=sigma)
