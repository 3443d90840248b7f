"""Lattice geometry: volumes, counting, quantization, distance search."""

from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lda_lab import rng
from lda_lab.codec import build_fine_lattice
from lda_lab.expander import BudgetExceededError
from lda_lab.gfmatrix import GfMatrix, NoSolutionError, _rref, rank, solve
from lda_lab.lattice import (
    BallSpec,
    ConstructionALattice,
    _column_masks,
    _covered_twice,
    _grow_supports,
    ball_volume,
    count_congruent_in_ball,
    count_integer_points,
    integer_points_in_ball,
    lemma2_bounds,
    lemmaC_bound,
    log_ball_volume,
    volume_ratio_check,
)
from oracles import sorted_columns


def log_stirling_volume(n: int, rho: float) -> float:
    """log of the Stirling form (1/sqrt(pi n)) (sqrt(2 pi e) rho / sqrt(n))^n."""
    if n < 1 or rho <= 0:
        raise ValueError("need n >= 1 and rho > 0")
    return -0.5 * math.log(math.pi * n) + n * math.log(
        math.sqrt(2 * math.pi * math.e) * rho / math.sqrt(n)
    )


def stirling_volume(n: int, rho: float) -> float:
    return math.exp(log_stirling_volume(n, rho))


def effective_radius_asymptotic(n: int, p: int, R) -> float:
    """sqrt(n) p^(1-R) / sqrt(2 pi e)."""
    return math.sqrt(n) * float(p) ** (1.0 - float(R)) / math.sqrt(2 * math.pi * math.e)


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


def test_integer_points_in_ball_yields_each_point_once():
    # The enumerator and the count share one walk; check the points
    # themselves against the grid-scan oracle.
    gen = rng.generator(7, "ball-walk")
    for _ in range(60):
        dim = int(gen.integers(1, 5))
        rho = float(gen.uniform(0.5, 4.0))
        center = gen.uniform(-4, 4, size=dim)
        chunks = list(integer_points_in_ball(BallSpec(center, rho, dim)))
        assert all(chunk.dtype == np.int64 for chunk in chunks)
        points = np.concatenate([np.empty((0, dim), dtype=np.int64), *chunks]).tolist()
        assert len(set(map(tuple, points))) == len(points) == brute_count(center, rho)
        assert all(sum((zi - ci) ** 2 for zi, ci in zip(z, center)) <= rho**2 for z in points)


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
    lat = lattice_from([[0] * 8], 5)  # Z^8: 2^8 closest points to (1/2, ..., 1/2)
    with pytest.raises(BudgetExceededError, match="closest-point search refused: 501 search "
                                                  "nodes visited, over the budget of 500"):
        lat.quantize(np.full(8, 0.5), budget=500)
    # The same search fits in 765 nodes: 3 integers tried per level entry.
    assert lat.quantize(np.full(8, 0.5), budget=765).sum() == 0


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


def row_masks(H: np.ndarray) -> list[int]:
    """Each column's row support as one Python integer."""
    masks = [0] * H.shape[1]
    for r, c in zip(*np.nonzero(H)):
        masks[c] |= 1 << int(r)
    return masks


def private_row_free(masks: list[int], J: tuple[int, ...]) -> bool:
    """No column of J touches a row that no other column of J touches."""
    for j in J:
        others = 0
        for k in J:
            if k != j:
                others |= masks[k]
        if masks[j] & ~others:
            return False
    return True


def support_loop_min_weight(lat: ConstructionALattice, w_max: int) -> int | None:
    """The support search one support at a time: the private-row prune on
    Python-integer masks, then the rank test.  The oracle of
    ``min_hamming_weight``."""
    H = lat.H.array
    masks = row_masks(H)
    for w in range(1, min(w_max, lat.n) + 1):
        for J in combinations(range(lat.n), w):
            if private_row_free(masks, J) and len(_rref(H[:, J], lat.p)[1]) < w:
                return w
    return None


@st.composite
def support_search_cases(draw):
    """A random parity check small enough to enumerate its code: n <= 8,
    p in {3, 5, 7}, up to n + 1 rows or 63-70 rows (two mask words), and
    sometimes an all-zero column or a column proportional to another."""
    p = draw(st.sampled_from([3, 5, 7]))
    n = draw(st.integers(1, {3: 8, 5: 6, 7: 5}[p]))
    rows = draw(st.one_of(st.integers(1, n + 1), st.integers(63, 70)))
    H = np.array(draw(st.lists(st.integers(0, p - 1), min_size=rows * n,
                               max_size=rows * n))).reshape(rows, n)
    j = draw(st.integers(0, n - 1))
    edit = draw(st.sampled_from(["none", "zero column", "proportional columns"]))
    if edit == "zero column":
        H[:, j] = 0
    elif edit == "proportional columns" and n > 1:
        k = draw(st.integers(0, n - 1).filter(lambda k: k != j))
        H[:, k] = draw(st.integers(1, p - 1)) * H[:, j] % p
    return ConstructionALattice(GfMatrix(H, p))


@settings(max_examples=200, deadline=None)
@given(support_search_cases())
def test_support_search_agrees_with_the_loop_and_the_code(lat):
    words = lat.codewords()
    weights = np.count_nonzero(words, axis=1)
    least = int(weights[weights > 0].min()) if weights.any() else None
    for w_max in range(1, lat.n + 3):
        expect = least if least is not None and least <= w_max else None
        assert lat.min_hamming_weight(w_max) == support_loop_min_weight(lat, w_max) == expect


@settings(max_examples=100, deadline=None)
@given(support_search_cases())
def test_batched_prune_keeps_exactly_the_supports_the_loop_keeps(lat):
    H = lat.H.array
    masks = row_masks(H)
    supports = np.arange(lat.n, dtype=np.uint8)[None]
    for w in range(1, lat.n + 1):
        if w > 1:
            supports = _grow_supports(supports, lat.n)
        assert _covered_twice(_column_masks(H), supports).tolist() == [
            private_row_free(masks, tuple(J)) for J in supports.T.tolist()]


@pytest.mark.parametrize("n, w_top", [(2, 2), (6, 6), (30, 4), (300, 2)])
def test_grow_supports_lists_every_subset_in_lex_order(n, w_top):
    supports = np.arange(n, dtype=np.min_scalar_type(n))[None]
    for w in range(2, w_top + 1):
        supports = _grow_supports(supports, n)
        assert supports.dtype == np.min_scalar_type(n)
        assert supports.T.tolist() == [list(J) for J in combinations(range(n), w)]


def test_min_hamming_weight_reads_every_mask_word():
    # 80 rows, so two mask words per column.  Making a column proportional
    # to one whose rows fall in both words plants a weight-2 word.
    lat, _ = build_fine_lattice(160, 11, Fraction(1, 2), 8,
                                seed=rng.derive_key(12, "two-words"))
    H = lat.H.array.copy()
    assert H.shape == (80, 160) and _column_masks(H).shape == (2, 160)
    j1 = next(j for j in range(160) if H[:64, j].any() and H[64:, j].any())
    j2 = (j1 + 80) % 160
    H[:, j2] = 3 * H[:, j1] % 11
    planted = ConstructionALattice(GfMatrix(H, 11))
    assert planted.min_hamming_weight(3) == support_loop_min_weight(planted, 3) == 2
    # Every pair the batched prune keeps is one the loop keeps, and back.
    pairs = _grow_supports(np.arange(160, dtype=np.uint8)[None], 160)
    masks = row_masks(H)
    assert _covered_twice(_column_masks(H), pairs).tolist() == [
        private_row_free(masks, tuple(J)) for J in pairs.T.tolist()]
    assert lat.min_hamming_weight(2) is None and support_loop_min_weight(lat, 2) is None


def test_min_hamming_weight_refuses_over_budget_before_building_supports():
    # A check that counts supports level by level would build every support
    # of weight <= 3 (1.3 million) before refusing at weight 4.
    lat = lattice_from([[1] * 200], 3)
    total = sum(math.comb(200, w) for w in range(1, 7))
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match=f"support enumeration refused: {total} "
                                                      f"supports exceed budget 2000000"):
            lat.min_hamming_weight(6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000


@pytest.mark.parametrize("w_max", [0, -3])
def test_min_hamming_weight_refuses_a_weight_below_one(w_max):
    lat = lattice_from([[1, 2, 0, 0], [0, 1, 2, 0], [0, 0, 1, 2]], 3)
    with pytest.raises(ValueError, match=f"w_max = {w_max} must be at least 1"):
        lat.min_hamming_weight(w_max)
    # The code {0} (the lattice pZ^n) is refused the same way.
    with pytest.raises(ValueError, match=f"w_max = {w_max} must be at least 1"):
        ConstructionALattice(GfMatrix.identity(4, 7)).min_euclidean_distance(w_max)


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


def test_systematic_form_built_once_per_lattice(monkeypatch):
    # Every method reads one cached row reduction and one sorted QR.  A
    # standalone lattice reduces [H | I] itself; a pair reduces [H_f | I]
    # once for the fine lattice and extends that form by the ell message
    # rows for the shaping lattice, once per draw, redraws included.
    from lda_lab import codec, gfmatrix, lattice
    from lda_lab.channel import wiener

    reductions, factorizations = [], []
    rref, sorted_qr = gfmatrix._rref, lattice._sorted_qr

    def counted_rref(a, p):
        reductions.append(a.shape)
        return rref(a, p)

    def counted_sorted_qr(basis):
        factorizations.append(basis.shape)
        return sorted_qr(basis)

    monkeypatch.setattr(gfmatrix, "_rref", counted_rref)
    monkeypatch.setattr(lattice, "_rref", counted_rref)
    monkeypatch.setattr(lattice, "_sorted_qr", counted_sorted_qr)
    lat = ConstructionALattice(GfMatrix.random(3, 9, 5, rng.generator(1, "shared-form")))
    y = rng.generator(2, "shared-form").uniform(-5, 5, size=9)
    syndrome = lat.H.mul_vec(np.arange(9))
    for _ in range(3):
        assert lat.generator.rows == lat.k_eff
        assert np.array_equal(lat.H.mul_vec(lat.coset_point(syndrome)), syndrome)
        assert lat.contains(lat.quantize(y))
    assert lat.contains(lat.shortest_vector())
    assert (reductions, factorizations) == ([(3, 12)], [(9, 9)])
    assert lat.k_eff == 9 - rank(lat.H)

    # Seed 3 of this dense family is rank deficient on its first draw.
    for seed, kind, n, p, R, R_f in ((3, "dense", 4, 3, "1/4", "3/4"),
                                     (5, "lda", 12, 7, "1/4", "1/2")):
        reductions.clear()
        factorizations.clear()
        pair = codec.build_pair(n, p, R, R_f, kind, seed=seed, delta_p=4)
        ell, r = pair.ell, pair.stack.r
        attempts = pair.regenerations + 1
        assert attempts == (2 if kind == "dense" else 1)
        assert reductions == [(r, n + r), (ell, n + ell + r)] * attempts
        assert factorizations == []
        message = np.arange(ell) % p
        x = codec.encode(pair, message).point
        P, sigma2 = 1.0, 1e-6
        for _ in range(2):
            decoded = codec.mmse_decode_exact(pair, x / wiener(P, sigma2), P, sigma2)
            assert np.array_equal(decoded, message)
        assert len(reductions) == 2 * attempts
        assert factorizations == [(n, n), (n, n)]


def assert_sorted_qr(lat: ConstructionALattice) -> None:
    """The lattice's basis spans a sublattice of volume p^(n - k_eff), so
    the lattice itself; and its one-pass sorted QR gives the oracle's column
    order, orthonormal Q, Q R = basis and a positive diagonal of R."""
    from lda_lab.lattice import _sorted_qr

    basis = lat._basis
    assert all(lat.contains(column) for column in basis.T)
    sign, logdet = np.linalg.slogdet(basis.astype(float))
    assert sign != 0 and math.isclose(logdet, (lat.n - lat.k_eff) * math.log(lat.p))
    form = _sorted_qr(basis)
    assert np.array_equal(form.basis, sorted_columns(basis))
    r = np.array(form.r)
    assert np.allclose(form.q_t @ form.q_t.T, np.eye(lat.n), atol=1e-10)
    assert np.allclose(form.q_t.T @ r, form.basis, atol=1e-8)
    assert (np.diag(r) > 0).all()
    assert np.array_equal(r, np.triu(r))


def test_sorted_qr_at_paper_regime_size():
    # At n = 96, p = 31 the residual lengths of the sorted QR cancel to
    # negative values if they are downdated instead of recomputed; this
    # seed raised a math domain error from k_eff.
    lat, _ = build_fine_lattice(96, 31, Fraction(1, 2), 4, seed=rng.derive_key(5, 96, 0))
    assert lat.k_eff == lat.n - rank(lat.H)
    assert_sorted_qr(lat)


def test_sorted_qr_matches_the_oracle_on_the_pinned_family():
    # The benchmark's simulate family: n = 12, p = 7, R = 1/4, R_f = 1/2,
    # delta_p = 4; both lattices of each pair.
    from lda_lab.codec import build_pair

    for seed in range(10):
        pair = build_pair(12, 7, "1/4", "1/2", "lda", seed=seed, delta_p=4)
        assert_sorted_qr(pair.fine)
        assert_sorted_qr(pair.shaping)


def test_search_breaks_half_integer_ties_to_the_lower_neighbour():
    # A center one ulp past 0.5 is float noise on a tie, not a side: both
    # centers try 0 first, so node counts do not hang on the last bit.
    from lda_lab.lattice import _search

    for z in (0.5, 0.5 + 2.0**-52, 0.5 - 2.0**-52):
        assert _search([[1.0]], [z], 0.25, 100, "t").ravel().tolist() == [0, 1]
    assert _search([[1.0]], [-0.5], 0.25, 100, "t").ravel().tolist() == [-1, 0]
    assert _search([[1.0]], [0.5 + 1e-6], 0.25, 100, "t").ravel().tolist() == [1]


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("method", ["quantize", "closest_point_bruteforce"])
def test_searches_refuse_non_finite_input(method, bad):
    lat = lattice_from([[1, 2, 0, 4], [0, 1, 1, 3]], 5)
    with pytest.raises(ValueError, match="non-finite"):
        getattr(lat, method)(np.array([bad, 0.0, 0.0, 0.0]))


def test_quantize_far_from_the_origin():
    # Far out, rounding in the basis coordinates must not lose the closest
    # point: the search runs relative to a nearby lattice point.
    lat = lattice_from([[1, 2, 0, 4], [0, 1, 1, 3]], 5)
    y = np.array([0.375, -1.25, 2.5, 0.875])
    shift = 5 * np.array([2 * 10**11, -3 * 10**11, 10**11, 0])
    assert np.array_equal(lat.quantize(y + shift), lat.quantize(y) + shift)
    with pytest.raises(ValueError, match="beyond 2\\^52"):
        lat.quantize(np.array([1e19, 0.0, 0.0, 0.0]))


def test_min_euclidean_distance_searches_past_the_weight_bound(monkeypatch):
    # Over GF(7), 3x + 6y = 0 gives the words y(5, 1): weight 2, but no
    # multiple lifts to entries +-1, so sqrt(2) is only a lower bound.  The
    # shortest vectors are +-(-2, 1), of length sqrt(5) < p.
    lat = lattice_from([[3, 6]], 7)
    assert np.array_equal(lat.shortest_vector(), [-2, 1])
    d = lat.min_euclidean_distance(2)
    assert d.exact and d.weight == 2
    assert d.value == pytest.approx(math.sqrt(5))
    # Out of search nodes, only the bound is certified.
    def refuse(self):
        raise BudgetExceededError("shortest-vector search refused")

    monkeypatch.setattr(ConstructionALattice, "shortest_vector", refuse)
    d = lat.min_euclidean_distance(2)
    assert not d.exact and d.weight == 2
    assert d.value == pytest.approx(math.sqrt(2))


# ---------------------------------------------------------------------------
# Properties: the searches against the table scan and the brute-force oracle


@st.composite
def small_lattices(draw):
    """A random parity check: n <= 6, p in {3, 5, 7}, sized so that the
    brute-force oracle's ball stays small."""
    p = draw(st.sampled_from([3, 5, 7]))
    n = draw(st.integers(1, {3: 6, 5: 5, 7: 4}[p]))
    rows = draw(st.integers(1, n))
    H = draw(st.lists(st.integers(0, p - 1), min_size=rows * n, max_size=rows * n))
    return ConstructionALattice(GfMatrix(np.array(H).reshape(rows, n), p))


def points_near(lat: ConstructionALattice, dyadic: bool = False):
    """Length-n targets: integers, half-integers (which tie inside a coset)
    and either arbitrary floats or multiples of 1/8, whose shifts by p are
    exact."""
    span = 2 * lat.p
    coord = st.one_of(
        st.integers(-span, span).map(float),
        st.integers(-2 * span, 2 * span).map(lambda k: k / 2),
        st.integers(-8 * span, 8 * span).map(lambda k: k / 8) if dyadic
        else st.floats(-span, span, allow_nan=False),
    )
    return st.lists(coord, min_size=lat.n, max_size=lat.n).map(np.array)


def table_scan(lat: ConstructionALattice, y: np.ndarray) -> np.ndarray:
    """Closest point over every coset c + pZ^n of the codeword table: the
    coordinate-wise nearest point of each coset (the smaller one at a half
    step), then the lex-min of those at the least distance."""
    C = lat.codewords()
    Z = C + lat.p * np.ceil((y - C) / lat.p - 0.5).astype(np.int64)
    d2 = ((y - Z) ** 2).sum(axis=1)
    return np.array(min(Z[d2 == d2.min()].tolist()))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_quantize_matches_table_scan_and_bruteforce(data):
    lat = data.draw(small_lattices())
    y = data.draw(points_near(lat))
    q = lat.quantize(y)
    assert lat.contains(q)
    assert np.array_equal(q, table_scan(lat, y))
    assert np.array_equal(q, lat.closest_point_bruteforce(y))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_quantize_commutes_with_period_shifts(data):
    lat = data.draw(small_lattices())
    y = data.draw(points_near(lat, dyadic=True))
    k = np.array(data.draw(st.lists(st.integers(-3, 3), min_size=lat.n, max_size=lat.n)))
    assert np.array_equal(lat.quantize(y + lat.p * k), lat.quantize(y) + lat.p * k)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_shortest_vector_and_distance_bound_against_codewords(data):
    lat = data.draw(small_lattices())
    # Every nonzero codeword's shortest lift takes the centered residues;
    # the zero word's shortest nonzero lift is p e_i.
    words = lat.codewords()
    lifts = words - lat.p * (words > lat.p // 2)
    norms = (lifts[np.any(words, axis=1)] ** 2).sum(axis=1)
    d2 = min([lat.p**2, *norms.tolist()])
    v = lat.shortest_vector()
    assert lat.contains(v) and v.any() and int(v @ v) == d2
    w_max = data.draw(st.integers(1, lat.n))
    d = lat.min_euclidean_distance(w_max)
    weights = np.count_nonzero(words[np.any(words, axis=1)], axis=1)
    w = int(weights.min()) if weights.size else None
    bound = min(lat.p, math.sqrt(w if w is not None and w <= w_max else w_max + 1))
    assert bound <= math.sqrt(d2) + 1e-12
    if d.exact:
        assert d.value == pytest.approx(math.sqrt(d2), rel=1e-12)
    else:
        assert d.value == pytest.approx(bound, rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_coset_point_is_the_particular_solution_of_solve(data):
    lat = data.draw(small_lattices())
    s = np.array(data.draw(st.lists(st.integers(0, lat.p - 1),
                                    min_size=lat.H.rows, max_size=lat.H.rows)))
    try:
        expected = solve(lat.H, s)
    except NoSolutionError:
        with pytest.raises(NoSolutionError):
            lat.coset_point(s)
        return
    assert np.array_equal(lat.coset_point(s), expected)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_encode_equals_solve_based_encoding(data):
    from fractions import Fraction

    from lda_lab.codec import build_pair, encode

    n, R, R_f = data.draw(st.sampled_from([(4, "1/4", "3/4"), (6, "1/2", "5/6"), (6, "1/3", "2/3")]))
    p = data.draw(st.sampled_from([3, 5, 7] if n == 4 else [3, 5]))
    pair = build_pair(n, p, Fraction(R), Fraction(R_f), "dense", seed=data.draw(st.integers(0, 2**32)))
    m = np.array(data.draw(st.lists(st.integers(0, p - 1), min_size=pair.ell, max_size=pair.ell)))
    x = solve(pair.stack.full, np.concatenate([m, np.zeros(pair.stack.r, dtype=np.int64)]))
    expected = x - pair.shaping.closest_point_bruteforce(x.astype(float))
    assert np.array_equal(encode(pair, m).point, expected)
