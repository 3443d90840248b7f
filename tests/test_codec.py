"""Nested pairs, syndrome encoding, exact and iterative decoding."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from lda_lab import channel, rng
from lda_lab.codec import (
    _check_node_messages,
    all_messages,
    bp_decode,
    build_fine_lattice,
    build_pair,
    encode,
    extract_message,
    mmse_decode_exact,
    pair_from_text,
    pair_to_text,
    voronoi_codebook_bruteforce,
)
from lda_lab.expander import BudgetExceededError


def small_pair(seed=0):
    return build_pair(6, 5, Fraction(1, 2), Fraction(5, 6), "dense", seed=seed)


def test_codebook_cardinality_examples():
    # n(R_f - R) = 2 at these rates, so M = 25; the 625-message example
    # config is n = 8 with R = 1/4.
    assert build_pair(8, 5, Fraction(1, 2), Fraction(3, 4), seed=1).codebook_size == 25
    assert build_pair(8, 5, Fraction(1, 4), Fraction(3, 4), seed=1).codebook_size == 625


def test_build_pair_deterministic():
    a = build_pair(8, 5, Fraction(1, 4), Fraction(3, 4), seed=9)
    b = build_pair(8, 5, Fraction(1, 4), Fraction(3, 4), seed=9)
    assert a.stack.full == b.stack.full
    c = build_pair(8, 5, Fraction(1, 4), Fraction(3, 4), seed=10)
    assert a.stack.full != c.stack.full


def test_build_pair_rejects_bad_rates():
    with pytest.raises(ValueError):
        build_pair(7, 5, Fraction(1, 2), Fraction(3, 4))
    with pytest.raises(ValueError):
        build_pair(8, 4, Fraction(1, 2), Fraction(3, 4))  # p must be odd prime


def test_lda_pair_regular_profile():
    # delta_p = 5 at R_f = 3/5 gives the (2,5)-regular fine profile.
    pair = build_pair(30, 11, Fraction(1, 5), Fraction(3, 5), "lda", seed=3, delta_p=5)
    fine = pair.lda.fine_graph
    assert fine.degree_histogram("right") == {5: 12}
    assert fine.degree_histogram("left") == {2: 30}
    upper = pair.lda.upper_graph
    assert upper.degree_histogram("right") == {5: 12}
    assert upper.degree_histogram("left") == {2: 30}


def test_lda_pair_rejects_non_integral_degrees():
    with pytest.raises(ValueError):
        build_pair(30, 11, Fraction(1, 5), Fraction(3, 5), "lda", seed=3, delta_p=4)


def test_nesting_structural():
    pair = small_pair(2)
    # Shaping lattice points satisfy the fine parity check too.
    for c in pair.shaping.codewords():
        assert pair.fine.contains(c)


def test_encode_zero_message_is_origin():
    pair = small_pair(3)
    assert not encode(pair, np.zeros(pair.ell, dtype=int)).point.any()


def test_encode_syndrome_property_exhaustive():
    pair = small_pair(4)
    seen = set()
    for m in all_messages(pair):
        pt = encode(pair, m).point
        up, low = pair.syndrome(pt)
        assert np.array_equal(up, m)
        assert not low.any()
        assert pair.fine.contains(pt)
        seen.add(tuple(int(v) for v in pt))
    assert len(seen) == pair.codebook_size  # all encodings pairwise distinct


def test_encodings_have_minimal_norm_in_coset():
    # pt is a minimal-norm coset representative iff no shaping-lattice
    # point is closer to pt than the origin.
    pair = small_pair(5)
    for m in all_messages(pair):
        pt = encode(pair, m).point
        nearest = pair.shaping.closest_point_bruteforce(pt.astype(float))
        assert np.dot(pt - nearest, pt - nearest) >= np.dot(pt, pt)


def test_codebook_matches_bruteforce_voronoi():
    pair = small_pair(6)
    oracle = voronoi_codebook_bruteforce(pair)
    image = {tuple(int(v) for v in encode(pair, m).point) for m in all_messages(pair)}
    assert image == oracle


def test_extract_message_phi_properties():
    pair = small_pair(7)
    assert not extract_message(pair, np.zeros(6, dtype=int)).any()
    gen = rng.generator(1, "phi")
    for m in all_messages(pair):
        pt = encode(pair, m).point
        assert np.array_equal(extract_message(pair, pt), m)
        k = gen.integers(-3, 4, size=6)
        assert np.array_equal(extract_message(pair, pt + 5 * k), m)


def test_mmse_decode_noiseless_roundtrip():
    pair = small_pair(8)
    P = channel.default_power(pair.p, pair.R)
    for m in all_messages(pair):
        pt = encode(pair, m).point.astype(float)
        assert np.array_equal(mmse_decode_exact(pair, pt, P, 1e-24), m)


def test_mmse_decode_zero_input():
    pair = small_pair(9)
    assert not mmse_decode_exact(pair, np.zeros(6), 1.0, 0.1).any()


def test_mmse_decode_alpha_override():
    pair = small_pair(10)
    m = next(iter(all_messages(pair)))
    y = encode(pair, m).point.astype(float)
    assert np.array_equal(mmse_decode_exact(pair, y, 1.0, 0.5, alpha=1.0), m)


def test_encode_budget_refusal_and_bp_fallback():
    pair = build_pair(12, 7, Fraction(1, 4), Fraction(1, 2), "lda", seed=11, delta_p=4)
    m = np.array([1, 2, 3])
    with pytest.raises(BudgetExceededError):
        encode(pair, m, budget=10)
    res = encode(pair, m, budget=10, bp_shaping=True)
    assert res.approximate_shaping
    up, low = pair.syndrome(res.point)
    assert np.array_equal(up, m) and not low.any()


def lda_pair(seed):
    return build_pair(12, 7, Fraction(1, 4), Fraction(1, 2), "lda", seed=seed, delta_p=4)


def test_bp_requires_lda():
    with pytest.raises(ValueError):
        bp_decode(small_pair(12), np.zeros(6), 1.0, 0.1)


def test_bp_noiseless_converges_fast():
    pair = lda_pair(13)
    P = channel.default_power(pair.p, pair.R)
    for m in (np.array([0, 0, 0]), np.array([1, 5, 2]), np.array([6, 6, 6])):
        pt = encode(pair, m).point
        res = bp_decode(pair, pt.astype(float), P, 1e-20)
        assert res.verified
        assert res.iterations <= 2
        assert np.array_equal(res.point, pt)
        assert np.array_equal(res.message, m)


def test_bp_agrees_with_exact_at_moderate_noise():
    agree = 0
    trials = 100
    for t in range(trials):
        pair = lda_pair(rng.derive_key(14, "pair", t))
        P = channel.default_power(pair.p, pair.R)
        sigma2 = P / 10.0  # 10 dB
        gen = rng.generator(14, "m", t)
        m = gen.integers(0, 7, size=pair.ell)
        y = channel.awgn_transmit(encode(pair, m).point.astype(float), math.sqrt(sigma2),
                                  rng.derive_key(14, "w", t))
        exact = mmse_decode_exact(pair, y, P, sigma2)
        agree += np.array_equal(exact, bp_decode(pair, y, P, sigma2).message)
    assert agree >= 95


def test_check_node_degree_two_is_permutation():
    # For the constraint h1 x1 + h2 x2 = 0 with x1 known to be a, the
    # outgoing message pins x2 = -h1 a / h2: a permuted copy of the input.
    p = 7
    idx_sub = (np.arange(p)[:, None] - np.arange(p)[None, :]) % p
    h1, h2 = 3, 5
    certain = np.zeros(p)
    certain[4] = 1.0
    flat = np.full(p, 1.0 / p)
    out = _check_node_messages(np.array([h1, h2]), [certain, flat], p, idx_sub)
    expected_symbol = (-h1 * 4 * pow(h2, p - 2, p)) % p
    assert out[1][expected_symbol] == pytest.approx(1.0)
    # And with a general input distribution the output is its permutation.
    gen = rng.generator(15, "msg")
    m1 = gen.random(p)
    m1 /= m1.sum()
    out = _check_node_messages(np.array([h1, h2]), [m1, flat], p, idx_sub)
    perm = [(-h1 * a * pow(h2, p - 2, p)) % p for a in range(p)]
    reconstructed = np.zeros(p)
    for a in range(p):
        reconstructed[perm[a]] = m1[a]
    assert np.allclose(out[1], reconstructed)


def test_serialization_round_trip_dense_and_lda():
    for pair in (small_pair(16), lda_pair(17)):
        text = pair_to_text(pair)
        back = pair_from_text(text)
        assert back.stack.full == pair.stack.full
        assert back.kind == pair.kind and back.seed == pair.seed
        assert pair_to_text(back) == text
        if pair.kind == "lda":
            assert back.lda.fine_graph.edges == pair.lda.fine_graph.edges


def _out_of_range_edge_index(text):
    lines = text.splitlines()
    k = lines.index("labels") + 1
    lines[k] = f"99 {lines[k].split()[1]}"
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("damage, message", [
    (lambda text: "", "truncated after line 0"),
    (lambda text: "\n".join(text.splitlines()[:-6]) + "\n", "truncated after line 75"),
    (_out_of_range_edge_index, "at line 18: .*edge index 99 out of range"),
])
def test_pair_from_text_rejects_malformed_input(damage, message):
    with pytest.raises(ValueError, match=message):
        pair_from_text(damage(pair_to_text(lda_pair(17))))


def test_decoders_reject_non_finite_channel_output():
    pair = lda_pair(13)
    P = channel.default_power(pair.p, pair.R)
    for y in (np.full(pair.n, np.nan), np.r_[np.inf, np.zeros(pair.n - 1)]):
        with pytest.raises(ValueError, match="non-finite"):
            bp_decode(pair, y, P, 1.0)
        with pytest.raises(ValueError, match="non-finite"):
            mmse_decode_exact(pair, y, P, 1.0)


def test_build_fine_lattice_profile():
    lat, graph = build_fine_lattice(30, 31, Fraction(3, 5), 5, seed=1)
    assert lat.n == 30 and lat.H.rows == 12
    assert graph.degree_histogram("left") == {2: 30}
