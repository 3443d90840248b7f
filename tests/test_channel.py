"""Channel model, rate planning, and noise concentration at reduced scale."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from lda_lab import rng
from lda_lab.channel import (
    awgn_transmit,
    capacity,
    decoding_radius,
    default_power,
    effective_noise_variance,
    plan_rates,
    sigma_max,
    sigma_pol,
    wiener,
)
from lda_lab.lattice import effective_radius_asymptotic


def test_capacity_values():
    assert capacity(1.0) == 0.5
    assert capacity(3.0) == 1.0
    assert capacity(100.0) == pytest.approx(3.3291057413758973, abs=1e-10)


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


def test_sigma_max_values():
    assert sigma_max(1.0, 5.0, 2) == pytest.approx(0.25)  # M^(2/n) = 5
    assert sigma_max(1.0, 2.0, 2) == pytest.approx(1.0)


def test_sigma_max_is_capacity_boundary():
    gen = rng.generator(2, "smax")
    for _ in range(100):
        P = float(gen.uniform(0.1, 5.0))
        n = int(gen.integers(2, 40))
        M = float(gen.integers(2, 1000))
        s2 = 0.9 * sigma_max(P, M, n)
        rate = math.log2(M) / n
        assert rate < capacity(P / s2)


def test_decoding_radius_value():
    # Frozen from a direct evaluation of sqrt(n) p^(1-Rf) (1-d)(1+e)/sqrt(2 pi e).
    got = decoding_radius(16, 7, Fraction(3, 4), 0.1, 0.01)
    assert got == pytest.approx(4 * 7**0.25 * 0.9 * 1.01 / math.sqrt(2 * math.pi * math.e), rel=1e-12)
    assert got == pytest.approx(1.4310710935598485, abs=1e-9)


def test_decoding_radius_reduces_to_effective_radius():
    # (1-d)(1+e) = 1 recovers the fine lattice's asymptotic effective radius.
    d = 0.1
    e = d / (1 - d)
    got = decoding_radius(32, 11, Fraction(2, 3), d, e)
    assert got == pytest.approx(effective_radius_asymptotic(32, 11, Fraction(2, 3)), rel=1e-12)


def test_decoding_radius_monotone_in_delta():
    values = [decoding_radius(16, 7, 0.75, d, 0.01) for d in (0.05, 0.1, 0.2, 0.4)]
    assert all(b < a for a, b in zip(values, values[1:]))


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


def test_plan_rates_invariants():
    gen = rng.generator(4, "plan")
    kept = 0
    for _ in range(100):
        n = int(gen.choice([16, 24, 48, 96]))
        p = int(gen.choice([7, 11, 31, 101]))
        snr = float(gen.uniform(1.5, 30.0))
        gamma = float(gen.uniform(0.2, 0.9))
        R = Fraction(int(gen.integers(1, n // 2)), n)
        try:
            plan = plan_rates(n, p, snr, gamma, R)
        except ValueError:
            continue
        kept += 1
        assert plan.realized_rate <= gamma * capacity(snr) + 1e-12
        P = default_power(p, plan.R)
        s2 = P / snr
        lhs = wiener(P, s2) * s2
        rhs = sigma_pol(p, plan.R_f) * plan.one_minus_delta**2
        assert lhs < rhs
        assert 0.0 < plan.delta_margin < 1.0
    assert kept >= 50  # the planner must accept a healthy share of draws


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
