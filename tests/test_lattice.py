"""Lattice geometry: volumes, counting, quantization, distance search."""

from __future__ import annotations

import math
from itertools import product

import numpy as np
import pytest

from lda_lab import rng
from lda_lab.expander import BudgetExceededError
from lda_lab.gfmatrix import GfMatrix
from lda_lab.lattice import (
    BallSpec,
    ConstructionALattice,
    ball_volume,
    count_congruent_in_ball,
    count_integer_points,
    effective_radius_asymptotic,
    lemma2_bounds,
    lemmaC_bound,
    log_ball_volume,
    log_stirling_volume,
    stirling_volume,
    volume_ratio_check,
)


def brute_count(center: np.ndarray, rho: float) -> int:
    """Grid-scan oracle for integer points in a ball."""
    n = len(center)
    ranges = [range(math.ceil(c - rho), math.floor(c + rho) + 1) for c in center]
    return sum(
        1 for z in product(*ranges) if sum((zi - ci) ** 2 for zi, ci in zip(z, center)) <= rho**2
    )


def test_ball_volume_closed_forms():
    assert ball_volume(2, 1.0) == pytest.approx(math.pi, rel=1e-12)
    assert ball_volume(3, 2.0) == pytest.approx(32 * math.pi / 3, rel=1e-12)


def test_stirling_volume_converges():
    exact = log_ball_volume(200, 1.0)
    approx = log_stirling_volume(200, 1.0)
    assert math.exp(approx - exact) == pytest.approx(1.0, abs=0.01)
    assert stirling_volume(10, 1.0) == pytest.approx(ball_volume(10, 1.0), rel=0.1)


def test_count_integer_points_examples():
    assert count_integer_points(BallSpec(np.zeros(3), 0.5, 3)) == 1
    assert count_integer_points(BallSpec(np.zeros(2), 1.5, 2)) == 9


def test_count_integer_points_matches_bruteforce():
    gen = rng.generator(3, "count")
    for _ in range(60):
        dim = int(gen.integers(1, 5))
        rho = float(gen.uniform(0.5, 6.0))
        center = gen.uniform(-4, 4, size=dim)
        assert count_integer_points(BallSpec(center, rho, dim)) == brute_count(center, rho)


def test_count_refuses_over_budget():
    with pytest.raises(BudgetExceededError):
        count_integer_points(BallSpec(np.zeros(6), 50.0, 6), budget=10_000)


def test_lemma2_bounds_hold():
    gen = rng.generator(4, "sphere-bounds")
    for _ in range(100):
        dim = int(gen.integers(1, 5))
        rho = float(gen.uniform(2.0, 10.0 if dim <= 3 else 6.0))
        center = gen.uniform(-3, 3, size=dim)
        ball = BallSpec(center, rho, dim)
        lo, hi = lemma2_bounds(ball)
        assert lo <= count_integer_points(ball) <= hi


def test_count_congruent_small_ball_has_at_most_one():
    gen = rng.generator(5, "cong")
    for _ in range(50):
        dim = int(gen.integers(1, 4))
        p = int(gen.choice([5, 7, 11]))
        rho = float(gen.uniform(0.5, p / 2 - 0.05))  # diameter below one period
        center = gen.uniform(-5, 5, size=dim)
        x = gen.integers(-10, 11, size=dim)
        mu = int(gen.integers(0, p))
        assert count_congruent_in_ball(x, mu, BallSpec(center, rho, dim), p) <= 1


def test_count_congruent_frozen_example():
    # z = 0 mod 3 inside ||z|| <= 4 in the plane: (0,0), (+-3,0), (0,+-3).
    # The corners (+-3,+-3) have norm ~4.24 and stay outside.
    ball = BallSpec(np.zeros(2), 4.0, 2)
    expected = sum(
        1 for z in product(range(-4, 5), repeat=2)
        if z[0] % 3 == 0 and z[1] % 3 == 0 and z[0] ** 2 + z[1] ** 2 <= 16
    )
    assert expected == 5
    assert count_congruent_in_ball(np.zeros(2, dtype=int), 0, ball, 3) == expected


def test_congruent_counts_within_closed_form_bound():
    gen = rng.generator(6, "congbound")
    for _ in range(100):
        dim = int(gen.integers(1, 4))
        p = int(gen.choice([3, 5, 7]))
        rho = float(gen.uniform(2.0, 6.0))
        center = gen.uniform(-2, 2, size=dim)
        ball = BallSpec(center, rho, dim)
        x = gen.integers(-5, 6, size=dim)
        mu = int(gen.integers(0, p))
        assert count_congruent_in_ball(x, mu, ball, p) <= lemmaC_bound(ball, p)


def test_volume_ratio_trivial_and_bounded():
    exact, bound = volume_ratio_check(4, 0, 6.0)
    assert exact == 1.0 and bound >= 1.0
    exact, bound = volume_ratio_check(4, 2, 6.0)
    # Exact ratio from independent brute-force counts.
    assert exact == pytest.approx(brute_count(np.zeros(2), 6.0) / brute_count(np.zeros(4), 6.0))
    assert bound / exact >= 1.0  # slack factor is reported, not asserted tight


def test_volume_ratio_bound_monotone_in_rho():
    bounds = [volume_ratio_check(4, 2, rho)[1] for rho in (3.0, 4.0, 6.0, 9.0)]
    assert all(b > a for a, b in zip(bounds[1:], bounds))


# ---------------------------------------------------------------------------
# Construction-A lattices


def lattice_from(rows, p) -> ConstructionALattice:
    return ConstructionALattice(GfMatrix(np.array(rows), p))


def test_membership_and_volume():
    lat = lattice_from([[1, 2, 0, 4], [0, 1, 1, 3]], 5)
    assert lat.k_eff == 2
    assert lat.log_volume == pytest.approx(2 * math.log(5))
    for c in lat.codewords():
        assert lat.contains(c)
        assert lat.contains(c + 5 * np.array([1, -2, 0, 3]))
    assert not lat.contains(np.array([1, 0, 0, 0])) or lat.H.mul_vec(np.array([1, 0, 0, 0])).sum() == 0


def test_volume_identity_by_exhaustive_scan():
    # |Lambda ∩ [0,p)^n| = p^k_eff, counted over the whole residue grid.
    gen = rng.generator(8, "volume")
    for _ in range(10):
        p = int(gen.choice([3, 5]))
        n = int(gen.integers(2, 7 if p == 3 else 6))
        rows = int(gen.integers(1, n + 1))
        lat = ConstructionALattice(GfMatrix(gen.integers(0, p, size=(rows, n)), p))
        grid = np.array(list(product(range(p), repeat=n)), dtype=np.int64)
        members = ~np.any((lat.H.array @ grid.T) % p, axis=0)
        assert members.sum() == p**lat.k_eff


def test_quantize_full_space_rounds():
    lat = lattice_from([[0, 0, 0]], 5)  # zero parity: the code is everything
    y = np.array([0.4, -1.2, 3.9])
    assert np.array_equal(lat.quantize(y), np.round(y))


def test_quantize_trivial_code_scales_rounding():
    lat = ConstructionALattice(GfMatrix.identity(3, 5))  # code {0}: lattice pZ^n
    y = np.array([2.4, -7.2, 12.0])
    assert np.array_equal(lat.quantize(y), 5 * np.round(y / 5))


def test_quantize_matches_bruteforce_oracle():
    gen = rng.generator(9, "cvp")
    for trial in range(100):
        dim = int(gen.integers(3, 6))
        p = 3 if dim >= 5 else int(gen.choice([3, 5]))
        rows = int(gen.integers(1, dim))
        lat = ConstructionALattice(GfMatrix(gen.integers(0, p, size=(rows, dim)), p))
        y = gen.uniform(-p, p, size=dim)
        fast = lat.quantize(y)
        slow = lat.closest_point_bruteforce(y)
        assert np.array_equal(fast, slow), f"trial {trial}: {fast} vs {slow}"
        assert lat.contains(fast)


def test_quantize_n6_p5_case():
    # The spec-scale instance: dimension 6, 5-ary code of dimension 3.
    gen = rng.generator(77, "cvp6")
    H = GfMatrix(gen.integers(0, 5, size=(3, 6)), 5)
    lat = ConstructionALattice(H)
    assert lat.k_eff >= 3
    y = gen.uniform(-5, 5, size=6)
    assert np.array_equal(lat.quantize(y), lat.closest_point_bruteforce(y))


def test_quantize_optimal_against_oracle_distance():
    gen = rng.generator(10, "cvpdist")
    for _ in range(30):
        lat = ConstructionALattice(GfMatrix(gen.integers(0, 5, size=(3, 6)), 5))
        y = gen.uniform(-5, 5, size=6)
        q = lat.quantize(y)
        oracle = lat.closest_point_bruteforce(y)
        assert np.linalg.norm(y - q) <= np.linalg.norm(y - oracle) + 1e-12


def test_quantize_periodicity():
    gen = rng.generator(11, "periodic")
    lat = ConstructionALattice(GfMatrix(gen.integers(0, 5, size=(3, 6)), 5))
    y = gen.uniform(-3, 3, size=6)
    k = gen.integers(-2, 3, size=6)
    assert np.array_equal(lat.quantize(y + 5 * k), lat.quantize(y) + 5 * k)


def test_quantize_budget_refusal():
    lat = lattice_from([[0] * 8], 5)  # k_eff = 8: 390625 codewords
    with pytest.raises(BudgetExceededError):
        lat.quantize(np.zeros(8), budget=1000)


def test_min_hamming_weight_repetition_code():
    # Repetition-style chain code over GF(3): codewords are multiples of
    # (1, 1, 1, 1)-like full-weight words.
    lat = lattice_from([[1, 2, 0, 0], [0, 1, 2, 0], [0, 0, 1, 2]], 3)
    assert lat.min_hamming_weight(3) is None
    assert lat.min_hamming_weight(4) == 4
    d = lat.min_euclidean_distance(4)
    assert d.exact and d.value == 2.0  # min(3, sqrt(4))


def test_min_hamming_weight_matches_codeword_enumeration():
    gen = rng.generator(12, "weights")
    for _ in range(40):
        p = int(gen.choice([3, 5]))
        n = int(gen.integers(3, 8))
        rows = int(gen.integers(1, n))
        lat = ConstructionALattice(GfMatrix(gen.integers(0, p, size=(rows, n)), p))
        words = lat.codewords()
        nz = words[np.any(words, axis=1)]
        oracle = int(np.min(np.count_nonzero(nz, axis=1))) if len(nz) else None
        assert lat.min_hamming_weight(n) == oracle


def test_min_euclidean_distance_extremes():
    scaled = ConstructionALattice(GfMatrix.identity(4, 7))  # pZ^n
    d = scaled.min_euclidean_distance(4)
    assert d.exact and d.value == 7.0
    everything = lattice_from([[0, 0, 0, 0]], 7)  # Z^n
    d = everything.min_euclidean_distance(4)
    assert d.exact and d.value == 1.0


def test_min_euclidean_distance_certified_bound():
    lat = lattice_from([[1, 2, 0, 0], [0, 1, 2, 0], [0, 0, 1, 2]], 3)
    d = lat.min_euclidean_distance(2)
    assert not d.exact
    assert d.value == pytest.approx(math.sqrt(3))  # min(p, sqrt(w_max + 1))


def test_hermite_gain_unit_lattices():
    everything = lattice_from([[0, 0, 0, 0]], 7)
    assert everything.hermite_gain(1.0) == pytest.approx(1.0)
    scaled = ConstructionALattice(GfMatrix.identity(4, 7))
    assert scaled.hermite_gain(7.0) == pytest.approx(1.0)


def test_hermite_gain_formula_when_distance_is_p():
    # With d_Emin = p the gain collapses to p^(2 R_f) for a fine lattice of
    # rate R_f: p^2 / p^(2(1-R_f)).
    from fractions import Fraction

    from lda_lab.codec import build_fine_lattice

    lat, _ = build_fine_lattice(24, 11, Fraction(1, 2), 8, seed=4)
    assert lat.k_eff == 12  # full-rank draw at this seed
    assert lat.hermite_gain(11.0) == pytest.approx(11.0 ** (2 * 0.5), rel=1e-12)


def test_effective_radius_defining_property():
    gen = rng.generator(14, "effrad")
    for _ in range(20):
        p = int(gen.choice([3, 5, 7]))
        n = int(gen.integers(2, 9))
        rows = int(gen.integers(1, n + 1))
        lat = ConstructionALattice(GfMatrix(gen.integers(0, p, size=(rows, n)), p))
        rho = lat.effective_radius()
        assert log_ball_volume(n, rho) == pytest.approx(lat.log_volume, abs=1e-12)


def test_effective_radius_example():
    # vol = 5 in the plane: pi rho^2 = 5.
    lat = lattice_from([[1, 2]], 5)
    assert lat.k_eff == 1
    assert lat.effective_radius() == pytest.approx(math.sqrt(5 / math.pi), rel=1e-12)


def test_effective_radius_asymptotic_converges():
    n, p, R = 256, 11, 0.5
    # Build the exact radius from the volume identity without a lattice:
    # log vol = n(1-R) log p.
    log_vol = n * (1 - R) * math.log(p)
    log_rho = (log_vol + math.lgamma(n / 2 + 1)) / n - 0.5 * math.log(math.pi)
    exact = math.exp(log_rho)
    assert exact / effective_radius_asymptotic(n, p, R) == pytest.approx(1.0, abs=0.02)


def test_hermite_gain_trend_with_certified_bounds():
    # Fixed p = 11 fine lattices with variable degree 4; the certified
    # lower bounds min(p, sqrt(w_max + 1)) grow against the constant
    # normalized volume, mirroring the fundamental-gain growth claim.
    from fractions import Fraction

    from lda_lab.codec import build_fine_lattice

    gains = []
    for n, w_max in ((24, 2), (48, 3), (96, 4)):
        lat, _ = build_fine_lattice(n, 11, Fraction(1, 2), 8, seed=rng.derive_key(2024, "trend", n))
        d = lat.min_euclidean_distance(w_max, budget=5_000_000)
        assert d.weight is None, f"unexpected codeword of weight {d.weight} at n={n}"
        gains.append(lat.hermite_gain(d.value))
    assert gains[0] < gains[1] < gains[2]


def test_codeword_table_built_once_when_threads_share_a_lattice():
    # Runner threads share one lattice when the pair is fixed; every caller
    # must get the one cached table, not a duplicate build.
    import sys
    from concurrent.futures import ThreadPoolExecutor

    lat = ConstructionALattice(GfMatrix.random(3, 9, 5, rng.generator(1, "shared-table")))
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            tables = list(pool.map(lambda _: lat.codewords(), range(16), timeout=60))
    finally:
        sys.setswitchinterval(old)
    assert len(tables) == 16
    assert all(t is tables[0] for t in tables)
