"""Channel model and noise concentration at reduced scale."""

from __future__ import annotations

import math

import numpy as np
import pytest

from lda_lab import rng
from lda_lab.channel import awgn_transmit, capacity, effective_noise_variance, noise_variance, wiener


def test_capacity_values():
    assert capacity(1.0) == 0.5
    assert capacity(3.0) == 1.0
    assert capacity(100.0) == pytest.approx(3.3291057413758973, abs=1e-10)


def test_noise_variance_values_and_refusals():
    assert noise_variance(2.0, 0.0) == 2.0
    assert noise_variance(1.0, 10.0) == 0.1
    assert noise_variance(5.0, 7.0) == 5.0 / 10.0 ** 0.7
    for snr_db in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"snr_db = {snr_db} is not finite"):
            noise_variance(1.0, snr_db)
    # 10^(snr/10) overflows or underflows to 0, or sigma2 overflows to inf.
    for P, snr_db in ((1.0, 4000.0), (1.0, -4000.0), (1e10, -3050.0)):
        with pytest.raises(ValueError, match=f"snr_db = {snr_db} puts the noise variance"):
            noise_variance(P, snr_db)


def test_wiener_values():
    assert wiener(1.0, 1.0) == 0.5
    assert wiener(3.0, 1.0) == 0.75
    gen = rng.generator(1, "alpha")
    for _ in range(50):
        P, s2 = gen.uniform(0.01, 10.0, size=2)
        assert 0.0 < wiener(P, s2) < 1.0


def test_wiener_is_empirical_mmse_minimizer():
    # Monte Carlo scan of E||x - beta y||^2 over a 0.01 grid; x drawn with
    # ||x||^2 = nP exactly so the scan target is P/(P + sigma2) = 0.75.
    n, P, s2 = 64, 3.0, 1.0
    trials = 4000
    num = den = 0.0
    for t in range(trials):
        direction = rng.gaussian(5, "dir", t, size=n)
        x = direction * math.sqrt(n * P) / np.linalg.norm(direction)
        w = rng.gaussian(5, "noise", t, size=n, sigma=math.sqrt(s2))
        y = x + w
        num += float(x @ y)
        den += float(y @ y)
    grid = np.round(np.arange(0.0, 1.0001, 0.01), 2)
    # E||x - by||^2 = E||x||^2 - 2b E[xy] + b^2 E||y||^2: minimized on the
    # grid at the point closest to num/den.
    losses = [-2 * b * num + b * b * den for b in grid]
    best = grid[int(np.argmin(losses))]
    assert abs(best - 0.75) <= 0.01


def test_awgn_deterministic_and_almost_noiseless():
    x = np.arange(8, dtype=float)
    y1 = awgn_transmit(x, 1e-12, noise_seed=123)
    y2 = awgn_transmit(x, 1e-12, noise_seed=123)
    assert np.array_equal(y1, y2)
    assert np.max(np.abs(y1 - x)) < 1e-9
    y3 = awgn_transmit(x, 1e-12, noise_seed=124)
    assert not np.array_equal(y1, y3)


def test_awgn_moments():
    n = 100_000
    w = awgn_transmit(np.zeros(n), 2.0, noise_seed=9)
    assert abs(w.mean()) < 4 * 2.0 / math.sqrt(n)
    assert w.var() == pytest.approx(4.0, rel=0.05)


def test_effective_snr_identity():
    gen = rng.generator(3, "snr")
    for _ in range(100):
        P, s2 = gen.uniform(0.01, 20.0, size=2)
        assert P / effective_noise_variance(P, s2) == pytest.approx(P / s2 + 1.0, rel=1e-12)


def test_typical_noise_norm_small_scale():
    # Reduced-n version of the noise-norm concentration check.
    n, eps, trials = 4000, 0.05, 400
    inside = 0
    for t in range(trials):
        w = rng.gaussian(31, "norm-conc", t, size=n)
        inside += (1 - eps) * math.sqrt(n) <= np.linalg.norm(w) <= (1 + eps) * math.sqrt(n)
    assert inside / trials >= 0.995


def test_orthogonal_noise_small_scale():
    n, trials = 4000, 400
    f = math.log(n)
    x = rng.gaussian(32, "x", size=n)
    xn = np.linalg.norm(x)
    violations = sum(
        abs(float(x @ rng.gaussian(32, "w", t, size=n))) > f * xn for t in range(trials)
    )
    assert violations == 0  # chernoff level exp(-f^2/2) ~ 1e-15
