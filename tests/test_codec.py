"""Nested pairs, syndrome encoding, exact and iterative decoding."""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from lda_lab import channel, codec, gfmatrix, rng
from lda_lab.codec import (
    LdaInfo,
    NestedLatticePair,
    _check_messages,
    _edges,
    _sum_product_points,
    bp_decode,
    bp_decode_batch,
    build_fine_lattice,
    build_pair,
    encode,
    extract_message,
    mmse_decode_exact,
    pair_from_text,
    pair_to_text,
)
from lda_lab.expander import BudgetExceededError
from lda_lab.gfmatrix import GfMatrix, StackedParityCheck, rank
from lda_lab.lattice import ConstructionALattice
from oracles import (
    _check_node_messages,
    all_messages,
    degree_histogram,
    edited_texts,
    voronoi_codebook_bruteforce,
)


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
    with pytest.raises(ValueError, match="non-integral block heights 7/4, 7/4 at n = 7"):
        build_pair(7, 5, Fraction(1, 2), Fraction(3, 4))
    with pytest.raises(ValueError):
        build_pair(8, 4, Fraction(1, 2), Fraction(3, 4))  # p must be odd prime
    with pytest.raises(ValueError, match="unknown ensemble kind 'foo'"):
        build_pair(8, 5, Fraction(1, 2), Fraction(3, 4), "foo")
    # verify-norm --n 0 reaches build_pair first; a 0-dimensional pair
    # would leave its nonzero-message loop spinning on an empty message.
    for n in (0, -4):
        for kind in ("dense", "lda"):
            with pytest.raises(ValueError, match=f"n = {n} must be at least 1"):
                build_pair(n, 3, Fraction(1, 2), Fraction(3, 4), kind, delta_p=4)


def test_lda_pair_regular_profile():
    # delta_p = 5 at R_f = 3/5 gives the (2,5)-regular fine profile.
    pair = build_pair(30, 11, Fraction(1, 5), Fraction(3, 5), "lda", seed=3, delta_p=5)
    fine = pair.lda.fine_graph
    assert degree_histogram(fine, "right") == {5: 12}
    assert degree_histogram(fine, "left") == {2: 30}
    upper = pair.lda.upper_graph
    assert degree_histogram(upper, "right") == {5: 12}
    assert degree_histogram(upper, "left") == {2: 30}


def test_lda_pair_rejects_non_integral_degrees():
    with pytest.raises(ValueError):
        build_pair(30, 11, Fraction(1, 5), Fraction(3, 5), "lda", seed=3, delta_p=4)


def test_build_pair_applies_the_rate_rule_once(monkeypatch):
    # Seed 4 takes three draws; the stacks of the redraws read their rates
    # off their blocks.
    heights = gfmatrix.block_heights
    calls = []
    for module in (codec, gfmatrix):
        monkeypatch.setattr(module, "block_heights", lambda *args: calls.append(args) or heights(*args))
    pair = build_pair(12, 3, Fraction(1, 4), Fraction(1, 2), "lda", seed=4, delta_p=4)
    assert pair.regenerations == 2 and (pair.R, pair.R_f) == (Fraction(1, 4), Fraction(1, 2))
    assert calls == [(12, Fraction(1, 4), Fraction(1, 2))]


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
        assert np.array_equal(extract_message(pair, pt), m)
        assert not pair.stack.lower.mul_vec(pt).any()
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
    # alpha = 1: the unscaled output, quantized in the fine lattice.
    pair = small_pair(10)
    m = next(iter(all_messages(pair)))
    y = encode(pair, m).point.astype(float)
    assert np.array_equal(extract_message(pair, pair.fine.quantize(y)), m)


def test_encode_budget_refusal():
    pair = build_pair(12, 7, Fraction(1, 4), Fraction(1, 2), "lda", seed=11, delta_p=4)
    m = np.array([1, 2, 3])
    with pytest.raises(BudgetExceededError, match="11 search nodes visited, over the budget of 10"):
        encode(pair, m, budget=10)


def test_budget_refusals_name_the_lattice_and_the_stage():
    pair = build_pair(12, 7, Fraction(1, 4), Fraction(1, 2), "lda", seed=11, delta_p=4)
    with pytest.raises(BudgetExceededError, match="^encode: shaping lattice closest-point search "
                       "refused: 2 search nodes visited, over the budget of 1 \\(n = 12\\)$"):
        encode(pair, np.array([1, 2, 3]), budget=1)
    y = encode(pair, np.array([1, 2, 3])).point + 0.4
    with pytest.raises(BudgetExceededError, match="^decode: fine lattice closest-point search "
                       "refused: 2 search nodes visited, over the budget of 1 \\(n = 12\\)$"):
        mmse_decode_exact(pair, y, 1.0, 0.1, budget=1)


def lda_pair(seed):
    return build_pair(12, 7, Fraction(1, 4), Fraction(1, 2), "lda", seed=seed, delta_p=4)


def test_bp_requires_lda():
    with pytest.raises(ValueError):
        bp_decode(small_pair(12), np.zeros(6), 1.0, 0.1)


def test_bp_refuses_an_iteration_count_or_a_batch_past_its_limits(monkeypatch):
    pair = lda_pair(13)
    y = np.zeros((3, pair.n))
    for iters in (0, codec.MAX_BP_ITERATIONS + 1):
        with pytest.raises(ValueError, match=f"bp_iters = {iters} must be at least 1 and at most"):
            bp_decode_batch(pair, y, 1.0, [0.1] * 3, iters=iters)
    need = codec.BP_BYTES_PER_SYMBOL * 3 * 12 * 7
    monkeypatch.setattr(codec, "MAX_BP_BYTES", need - 1)
    with pytest.raises(BudgetExceededError, match=(
            f"bp decoder refused: 3 points at n = 12, p = 7 need about {need} bytes of "
            f"messages, over the allowed {need - 1} bytes")):
        bp_decode_batch(pair, y, 1.0, [0.1] * 3)
    monkeypatch.setattr(codec, "MAX_BP_BYTES", need)
    assert len(bp_decode_batch(pair, y, 1.0, [0.1] * 3)) == 3


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


def oracle_messages(H: GfMatrix, v2c: np.ndarray) -> np.ndarray:
    """The per-check oracle on every check of H, one row per edge in
    check-major order."""
    p = H.p
    idx_sub = (np.arange(p)[:, None] - np.arange(p)[None, :]) % p
    out, e = [], 0
    for row in H.array:
        sup = np.nonzero(row)[0]
        out += _check_node_messages(row[sup], list(v2c[e:e + len(sup)]), p, idx_sub)
        e += len(sup)
    return np.array(out).reshape(-1, p)


@st.composite
def single_checks(draw):
    """One check over Z_p with nonzero labels; each incoming message is a
    one-hot or a random distribution."""
    p = draw(st.sampled_from([3, 5, 7, 11]))
    d = draw(st.integers(1, 6))
    labels = draw(st.lists(st.integers(1, p - 1), min_size=d, max_size=d))
    incoming = []
    for _ in range(d):
        if draw(st.booleans()):
            msg = np.zeros(p)
            msg[draw(st.integers(0, p - 1))] = 1.0
        else:
            msg = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=p, max_size=p)))
            msg = msg / msg.sum() if msg.sum() > 0 else np.full(p, 1.0 / p)
        incoming.append(msg)
    return GfMatrix(np.array([labels]), p), np.array(incoming)


@settings(max_examples=200, deadline=None)
@given(single_checks())
def test_check_update_matches_the_per_check_oracle(check):
    H, v2c = check
    got = _check_messages(_edges(H), v2c[None])[0]
    assert np.allclose(got, oracle_messages(H, v2c), rtol=1e-9, atol=1e-12)
    assert np.allclose(got.sum(axis=1), 1.0)


def test_sum_product_on_a_block_with_an_empty_row_and_a_degree_one_check():
    # Row 0 has no edges; row 1 is the degree-1 check 3 x_0 = 0, which
    # pins x_0 to 0 mod p whatever the channel says.
    p = 7
    H = GfMatrix(np.array([[0, 0, 0, 0, 0, 0],
                           [3, 0, 0, 0, 0, 0],
                           [1, 2, 0, 4, 0, 3],
                           [0, 5, 1, 0, 6, 2]]), p)
    gen = rng.generator(18, "v2c")
    v2c = gen.random((9, p))
    v2c /= v2c.sum(axis=1, keepdims=True)
    got = _check_messages(_edges(H), v2c[None])[0]
    assert np.allclose(got, oracle_messages(H, v2c), rtol=1e-9, atol=1e-12)
    assert np.allclose(got[0], np.eye(p)[0])
    lat = ConstructionALattice(H)
    x = (np.array([1, 4]) @ lat.generator.array[:2]) % p - p * np.array([0, 1, 0, 0, 1, 0])
    assert lat.contains(x)
    for t in range(20):
        z = x + rng.generator(18, "z", t).normal(0.0, 0.25, size=6)
        (point,), (verified,), (iters,) = _sum_product_points(H, z[None], np.array([0.0625]), 20)
        assert verified and 1 <= iters <= 20
        assert point[0] % p == 0
        assert np.array_equal(point, lat.quantize(z))


@st.composite
def sum_product_batches(draw):
    """A small LDA fine block and a batch of outputs near its points, each
    at its own noise level; the iteration cap is low enough that some
    members stop at it unverified."""
    n, R_f, delta_p = draw(st.sampled_from([(6, Fraction(1, 2), 2), (10, Fraction(1, 2), 4),
                                            (12, Fraction(1, 2), 4), (12, Fraction(2, 3), 6)]))
    p = draw(st.sampled_from([3, 5, 7, 11, 13]))
    lat, _graph = build_fine_lattice(n, p, R_f, delta_p, seed=draw(st.integers(0, 2**32)))
    gen = rng.generator(draw(st.integers(0, 2**32)), "batch")
    count = draw(st.integers(1, 6))
    noise_vars = np.array(draw(st.lists(st.sampled_from([0.01, 0.1, 0.5, 1.0, 3.0, 10.0]),
                                        min_size=count, max_size=count)))
    G = lat.generator.array
    points = gen.integers(0, p, size=(count, len(G))) @ G % p - p * gen.integers(0, 2, (count, n))
    Z = points + gen.normal(size=(count, n)) * np.sqrt(noise_vars)[:, None]
    return lat.H, Z, noise_vars, draw(st.integers(1, 12))


@settings(max_examples=150, deadline=None)
@given(sum_product_batches())
def test_a_batch_decodes_each_member_as_it_would_alone(case):
    H, Z, noise_vars, iters = case
    points, verified, used = _sum_product_points(H, Z, noise_vars, iters)
    event(f"batch of {len(Z)}")
    if not verified.all():
        event("a member stops at the cap")
    for i in range(len(Z)):
        (point,), (ok,), (its,) = _sum_product_points(H, Z[i:i + 1], noise_vars[i:i + 1], iters)
        assert np.array_equal(points[i], point)
        assert (verified[i], used[i]) == (ok, its)
        assert 1 <= its <= iters and (ok or its == iters)
        assert ok == (not H.mul_vec(point).any())


def test_serialization_round_trip_dense_and_lda():
    for pair in (small_pair(16), lda_pair(17)):
        text = pair_to_text(pair)
        back = pair_from_text(text)
        assert back.stack.full == pair.stack.full
        assert back.kind == pair.kind and back.seed == pair.seed
        assert pair_to_text(back) == text
        if pair.kind == "lda":
            assert back.lda == pair.lda


def _out_of_range_edge_index(text):
    lines = text.splitlines()
    k = lines.index("labels") + 1
    lines[k] = f"99 {lines[k].split()[1]}"
    return "\n".join(lines) + "\n"


def _edit_line(number, edit):
    def damage(text):
        lines = text.splitlines()
        lines[number - 1:number] = edit(lines[number - 1], lines)
        return "\n".join(lines) + "\n"
    return damage


def _chain(*damages):
    def damage(text):
        for d in damages:
            text = d(text)
        return text
    return damage


# lda_pair(17)'s upper block graph starts at line 4 (header '12 3 4 ...'),
# its first edge line is line 5, its labels are lines 18-29, one per edge,
# and the fine block graph starts at line 31.
@pytest.mark.parametrize("damage, message", [
    (lambda text: "", "truncated after line 0"),
    (lambda text: "\n".join(text.splitlines()[:-6]) + "\n", "truncated after line 75"),
    (_out_of_range_edge_index, "at line 18: .*edge index 99 out of range"),
    (_edit_line(5, lambda ln, _: [ln.rsplit(" ", 1)[0] + " 0"]),
     "at line 4: .*line 5: .*multiplicity >= 1"),
    (_edit_line(5, lambda ln, _: [ln, ln]), "at line 4: .*line 6: edge .* repeats"),
    (_edit_line(5, lambda ln, lines: [lines[5], ln]),
     "at line 4: .*line 6: edge .* out of sorted order"),
    (_edit_line(31, lambda ln, _: ["99 " + ln.split(" ", 1)[1]]),
     "at line 31: .*graph is 99 x 6, block fine is 12 x 6"),
    (_edit_line(31, lambda ln, _: ["12 6 4"]), "at line 31: .*line 31: header must be"),
    (_edit_line(2, lambda ln, _: [ln.replace("deltap=4", "deltap=9")]),
     "at line 4: .*graph check degree 4 differs from deltap = 9"),
    (_edit_line(31, lambda ln, _: [ln.replace(" 4 ", " 9 ", 1)]),
     "at line 31: .*graph check degree 9 differs from deltap = 4"),
    (_chain(_edit_line(2, lambda ln, _: [ln.replace("deltap=4", "deltap=9")]),
            *(_edit_line(k, lambda ln, _: [ln.replace(" 4 ", " 9 ", 1)]) for k in (4, 31))),
     "at line 4: .*check 0 has degree 4, not deltap = 9"),
    (_edit_line(19, lambda ln, _: []), "at line 19: .*edge index 2 is not the next edge, 1"),
    (_edit_line(19, lambda ln, _: ["0 " + ln.split()[1]]),
     "at line 19: .*edge index 0 is not the next edge, 1"),
    (_edit_line(29, lambda ln, _: []), "at line 29: .*labels end after 11 of 12 edges"),
    (_edit_line(2, lambda ln, _: [ln.replace("R=1/4", "R=1/0")]), "at line 2: ZeroDivisionError"),
    (_edit_line(2, lambda ln, _: [ln.replace("R=1/4", "R=3/4")]),
     "at line 2: .*R = 3/4, R_f = 1/2 break 0 < R < R_f < 1"),
    (_edit_line(2, lambda ln, _: [ln.replace("kind=lda", "kind=foo")]),
     "at line 2: .*unknown ensemble kind 'foo'"),
    (_edit_line(2, lambda ln, _: [ln.replace("p=7", "p=2")]), "at line 2: .*p must be an odd prime"),
    (_edit_line(2, lambda ln, _: [ln.replace("n=12", "n=0")]), "at line 2: .*n = 0 must be at least 1"),
    (_edit_line(18, lambda ln, _: [ln.split()[0] + " 99999999999999999999"]),
     "at line 18: .*label 99999999999999999999 out of range \\[0, 7\\)"),
    (_edit_line(18, lambda ln, _: [ln.split()[0] + " -5"]), "at line 18: .*label -5 out of range"),
    (_edit_line(5, lambda ln, _: [ln.rsplit(" ", 1)[0] + " 99999999999999999999"]),
     "at line 4: .*line 5: .*multiplicity >= 1 and below 2\\^31"),
    (_edit_line(2, lambda ln, _: [ln.replace("p=7", "p=99999999999999999989")]),
     "at line 2: .*modulus p = 99999999999999999989 is too large for int64 arithmetic on a "
     "9 x 12 matrix"),
])
def test_pair_from_text_rejects_malformed_input(damage, message):
    with pytest.raises(ValueError, match=message):
        pair_from_text(damage(pair_to_text(lda_pair(17))))


PAIR_TEXTS = [pair_to_text(small_pair(16)), pair_to_text(lda_pair(17))]
EXTREMES = [0, 1, -1, -5, 7, 2**31, 2**63 - 1, 2**63, 99999999999999999989, -10**20]


@settings(max_examples=300, deadline=None)
@given(text=edited_texts(PAIR_TEXTS, EXTREMES))
def test_pair_from_text_refuses_or_round_trips_edited_files(text):
    try:
        pair = pair_from_text(text)
    except ValueError:
        event("refused")
        return
    event("read")
    assert pair_from_text(pair_to_text(pair)) == pair


def test_pair_is_read_off_its_stack():
    assert [f.name for f in dataclasses.fields(NestedLatticePair)] == [
        "stack", "seed", "regenerations", "lda"]
    assert [f.name for f in dataclasses.fields(StackedParityCheck) if f.init] == ["upper", "lower"]
    assert [f.name for f in dataclasses.fields(LdaInfo)] == ["fine_graph", "upper_graph"]
    assert lda_pair(17).lda.delta_p == lda_pair(17).lda.fine_graph.delta == 4
    for pair, kind in ((small_pair(16), "dense"), (lda_pair(17), "lda")):
        stack = pair.stack
        assert (pair.n, pair.p, pair.R, pair.R_f, pair.kind) == (
            stack.n, stack.p, stack.R, stack.R_f, kind)
        assert pair.shaping.H == stack.full and pair.fine.H == stack.lower
        assert pair.shaping is pair.shaping and pair.fine is pair.fine


def test_build_pair_redraws_until_the_stack_has_full_rank():
    # Full rank is read off the shaping lattice's row reduction; the plain
    # rank routine must agree on every draw, the skipped ones included.
    deficient = 0
    for seed in range(40):
        pair = build_pair(4, 3, Fraction(1, 4), Fraction(3, 4), "dense", seed=seed)
        for attempt in range(pair.regenerations + 1):
            gen = rng.generator(seed, "dense-H", attempt)
            full = StackedParityCheck(GfMatrix.random(2, 4, 3, gen), GfMatrix.random(1, 4, 3, gen)).full
            assert (rank(full) == 3) == (attempt == pair.regenerations)
        assert pair.stack.full == full
        deficient += pair.regenerations > 0
    assert deficient >= 3


def test_decoders_reject_non_finite_channel_output():
    pair = lda_pair(13)
    P = channel.default_power(pair.p, pair.R)
    for y in (np.full(pair.n, np.nan), np.r_[np.inf, np.zeros(pair.n - 1)]):
        with pytest.raises(ValueError, match="non-finite"):
            bp_decode(pair, y, P, 1.0)
        with pytest.raises(ValueError, match="non-finite"):
            bp_decode_batch(pair, [np.zeros(pair.n), y], P, [1.0, 1.0])
        with pytest.raises(ValueError, match="non-finite"):
            mmse_decode_exact(pair, y, P, 1.0)


def test_decoders_refuse_a_wrong_length_channel_output():
    pair = lda_pair(13)
    P = channel.default_power(pair.p, pair.R)
    for y in (np.zeros(pair.n - 1), np.zeros(pair.n + 1), np.zeros((1, pair.n))):
        for decode in (bp_decode, mmse_decode_exact):
            with pytest.raises(ValueError, match=f"expected length-{pair.n} vector"):
                decode(pair, y, P, 1.0)
    with pytest.raises(ValueError, match="2 outputs but 1 noise variances"):
        bp_decode_batch(pair, np.zeros((2, pair.n)), P, [1.0])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32), shape=st.sampled_from([
    (12, 7, Fraction(1, 4), Fraction(1, 2), 8),
    (12, 5, Fraction(1, 3), Fraction(2, 3), 6),
    (24, 11, Fraction(1, 4), Fraction(1, 2), 8),
]))
def test_build_fine_lattice_is_the_first_fine_block_of_build_pair(seed, shape):
    n, p, R, R_f, delta_p = shape
    pair = build_pair(n, p, R, R_f, "lda", seed, delta_p)
    lat, graph = build_fine_lattice(n, p, R_f, delta_p, seed)
    assert graph == pair.lda.fine_graph
    if pair.regenerations == 0:
        assert lat.H == pair.stack.lower


def test_build_fine_lattice_profile():
    lat, graph = build_fine_lattice(30, 31, Fraction(3, 5), 5, seed=1)
    assert lat.n == 30 and lat.H.rows == 12
    assert degree_histogram(graph, "left") == {2: 30}
