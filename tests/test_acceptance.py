"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.  Expected values marked "frozen" were computed
with the independent oracles named in the module tests (grid scans,
exhaustive enumeration, closed-form evaluation) before being pinned here.
"""

from __future__ import annotations

import dataclasses
import math
import time
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from lda_lab import channel, rng
from lda_lab.cli import (
    ExperimentConfig,
    emit_csv,
    run_monte_carlo,
    verify_counts,
    verify_expansion,
    verify_mindist,
    verify_noise,
    verify_norm,
    verify_ortho,
    wilson_interval,
)
from lda_lab.codec import bp_decode, build_pair, encode, extract_message, mmse_decode_exact
from lda_lab.expander import delta_threshold, lda_delta_p_threshold
from lda_lab.gfmatrix import GfMatrix, rank
from lda_lab.lattice import ConstructionALattice, log_ball_volume
from oracles import all_messages, voronoi_codebook_bruteforce


def report(num: int, name: str, passed: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {num} {'PASS' if passed else 'FAIL'}: {name} — {detail}")
    return passed


def test_criterion_1_noiseless_round_trip():
    """Every config with p^ell <= 10^3 decodes 100% of messages noiselessly."""
    start = time.time()
    configs = [
        (8, 5, Fraction(1, 4), Fraction(3, 4), "dense", None),  # 625 messages
        (8, 5, Fraction(1, 2), Fraction(3, 4), "dense", None),  # 25
        (6, 5, Fraction(1, 2), Fraction(5, 6), "dense", None),  # 25
        (12, 7, Fraction(1, 4), Fraction(1, 2), "lda", 4),  # 343
    ]
    failures = 0
    total = 0
    for n, p, R, R_f, kind, dp in configs:
        pair = build_pair(n, p, R, R_f, kind, seed=101, delta_p=dp)
        assert pair.codebook_size <= 1000
        P = channel.default_power(p, R)
        for m in all_messages(pair):
            pt = encode(pair, m).point.astype(float)
            if not np.array_equal(mmse_decode_exact(pair, pt, P, 1e-24), m):
                failures += 1
            total += 1
    elapsed = time.time() - start
    ok = failures == 0 and elapsed < 60.0
    assert report(1, "noiseless round trip", ok,
                  f"{total - failures}/{total} messages recovered in {elapsed:.1f}s")


def test_criterion_2_codebook_law():
    """|codebook| = p^(n(R_f-R)) and brute-force Voronoi set = encoder image."""
    pair = build_pair(6, 5, Fraction(1, 2), Fraction(5, 6), "dense", seed=202)
    image = {tuple(int(v) for v in encode(pair, m).point) for m in all_messages(pair)}
    oracle = voronoi_codebook_bruteforce(pair)
    ok = len(image) == pair.codebook_size == 5 ** 2 and image == oracle
    assert report(2, "codebook law", ok,
                  f"|image| = {len(image)}, M = {pair.codebook_size}, sets equal = {image == oracle}")


def test_criterion_3_geometry_oracles():
    """100 randomized instances per geometric bound family, zero violations."""
    start = time.time()
    result = verify_counts(cases=100, master_seed=303)
    elapsed = time.time() - start
    ok = result.passed and elapsed < 300.0
    assert report(3, "geometry oracle suite", ok,
                  f"violations = {result.measured:.0f} in {elapsed:.1f}s")


def test_criterion_4_volume_identities():
    """|Lambda ∩ [0,p)^n| = p^k_eff and ball_volume(n, rho_eff) = vol to 12 digits."""
    gen = rng.generator(404, "vol")
    worst_rel = 0.0
    count_failures = 0
    checked = 0
    while checked < 20:
        p = int(gen.choice([3, 5, 7]))
        n = int(gen.integers(2, {3: 11, 5: 8, 7: 7}[p]))
        rows = int(gen.integers(1, n + 1))
        H = GfMatrix(gen.integers(0, p, size=(rows, n)), p)
        if rank(H) != rows:  # criterion asks for full-rank draws
            continue
        checked += 1
        lat = ConstructionALattice(H)
        grid = np.array(list(product(range(p), repeat=n)), dtype=np.int64)
        members = int((~np.any((H.array @ grid.T) % p, axis=0)).sum())
        if members != p**lat.k_eff:
            count_failures += 1
        rho = lat.effective_radius()
        worst_rel = max(worst_rel, abs(log_ball_volume(n, rho) - lat.log_volume))
    # 12 significant digits on the volume = 1e-12 relative, i.e. log gap.
    ok = count_failures == 0 and worst_rel < 1e-12
    assert report(4, "volume identities", ok,
                  f"20 lattices, count failures = {count_failures}, worst log-volume gap = {worst_rel:.2e}")


def test_criterion_5_expansion_thresholds():
    """Threshold formulas at their stated tolerance plus falsifier behavior.

    The closed forms evaluate to 10.948204... and 101 exactly (frozen from
    direct evaluation with h the binary entropy; the value 10.946 sometimes
    quoted for (D=2, f=1/2) is an arithmetic slip of the same formula).
    """
    start = time.time()
    v1 = delta_threshold(2, 0.5)
    v2 = lda_delta_p_threshold(5, 0.75)
    formulas_ok = abs(v1 - 10.948204179833828) <= 0.001 and abs(v2 - 101.0) <= 0.001
    result = verify_expansion(n_left=200, f=Fraction(1, 4), D=2.0, delta=None,
                              graphs=100, budget=100_000, master_seed=505,
                              required_clean=95)
    elapsed = time.time() - start
    ok = formulas_ok and result.passed
    assert report(5, "expansion thresholds", ok,
                  f"delta_threshold(2,1/2) = {v1:.6f}, lda(5,3/4) = {v2:.3f}, "
                  f"clean graphs = {result.measured:.0f}/100, {result.detail}, {elapsed:.0f}s")


def test_criterion_6_minimum_distance_proxy():
    """Bounded-weight search over 50 seeded (2,5)-regular LDA codes, GF(31).

    Stated expectation: no nonzero codeword of weight <= 4.  At these
    parameters (delta_p = 5 is far below the degree threshold ~23.5 for any
    D > 1/(1-R_f), and random (2,5) graphs at n = 30 carry many short
    cycles whose label determinants vanish with probability ~1/p), low-weight
    codewords are in fact typical, so this criterion fails; see the measured
    offender count in the printed line.
    """
    start = time.time()
    result = verify_mindist(codes=50, n=30, p=31, R_f=Fraction(3, 5),
                            delta_p=5, w_max=4, master_seed=606)
    elapsed = time.time() - start
    ok = result.passed and elapsed < 600.0
    report(6, "minimum-distance proxy", ok,
           f"codes with weight<=4 codewords = {result.measured:.0f}/50 in {elapsed:.1f}s "
           f"({result.detail})")
    assert ok, (
        "criterion as stated cannot hold at these parameters; "
        "see notes in the decisions ledger and the supplementary test below"
    )


def test_criterion_6_supplement_above_threshold_profile():
    """Same machinery on a profile with variable degree 4 (delta_p = 8,
    R_f = 1/2): the search certifies the absence of low-weight codewords,
    demonstrating the clean regime the minimum-distance bound applies to."""
    result = verify_mindist(codes=50, n=30, p=31, R_f=Fraction(1, 2),
                            delta_p=8, w_max=4, master_seed=606)
    assert report(6, "minimum-distance supplement (degree-4 profile)", result.passed,
                  f"offenders = {result.measured:.0f}/50")


def test_criterion_7_noise_concentration():
    """Typical-norm frequency >= 0.999 and orthogonality at Chernoff + 3 sigma."""
    start = time.time()
    noise = verify_noise(n=10_000, sigma=1.0, eps=0.05, trials=10_000,
                         master_seed=707, pass_freq=0.999)
    ortho = verify_ortho(n=10_000, sigma=1.0, trials=10_000, master_seed=707)
    elapsed = time.time() - start
    ok = noise.passed and ortho.passed
    assert report(7, "noise concentration", ok,
                  f"norm freq = {noise.measured:.5f} (>= {noise.bound}), "
                  f"ortho violations = {ortho.measured:.2e} (<= {ortho.bound:.2e}), {elapsed:.0f}s")


def test_criterion_8_sphericity_proxy():
    """>= 90% of 500 encoded points have norm within [0.7, 1.1] of rho_eff."""
    dense = verify_norm("dense", n=16, p=3, R=Fraction(1, 2), R_f=Fraction(3, 4),
                        count=250, master_seed=808)
    lda = verify_norm("lda", n=24, p=3, R=Fraction(1, 4), R_f=Fraction(3, 4),
                      delta_p=8, count=250, master_seed=808)
    combined = (dense.measured * 250 + lda.measured * 250) / 500
    ok = combined >= 0.9
    assert report(8, "sphericity proxy", ok,
                  f"combined fraction = {combined:.3f} (dense {dense.measured:.3f}, "
                  f"lda {lda.measured:.3f})")


def test_criterion_9_mmse_benefit():
    """At n = 12, p = 7, 8 dB, 2000 trials: alpha-scaling beats alpha = 1 with
    non-overlapping Wilson intervals, and the empirical beta scan lands within
    one 0.01 grid step of the Wiener coefficient."""
    n, p, R, R_f = 12, 7, Fraction(1, 12), Fraction(1, 2)
    P = channel.default_power(p, R)
    sigma2 = P / (10.0 ** (8.0 / 10.0))
    trials = 2000
    wer_alpha = wer_one = 0
    xy_sum = yy_sum = xx_sum = 0.0
    for t in range(trials):
        pair = build_pair(n, p, R, R_f, "dense", seed=rng.derive_key(909, "pair", t))
        gen = rng.generator(909, "m", t)
        m = gen.integers(0, p, size=pair.ell)
        x = encode(pair, m).point.astype(float)
        y = channel.awgn_transmit(x, math.sqrt(sigma2), rng.derive_key(909, "w", t))
        wer_alpha += not np.array_equal(mmse_decode_exact(pair, y, P, sigma2), m)
        wer_one += not np.array_equal(extract_message(pair, pair.fine.quantize(y)), m)
        xy_sum += float(x @ y)
        yy_sum += float(y @ y)
        xx_sum += float(x @ x)
    int_a = wilson_interval(wer_alpha, trials)
    int_1 = wilson_interval(wer_one, trials)
    separated = (wer_alpha == wer_one == 0) or (wer_alpha <= wer_one and int_a[1] < int_1[0])
    # Empirical MMSE minimizer over the 0.01 grid via common random numbers:
    # E||x - b y||^2 is quadratic with sample moments as coefficients.
    grid = np.round(np.arange(0.0, 1.0001, 0.01), 2)
    losses = xx_sum - 2 * grid * xy_sum + grid**2 * yy_sum
    beta_star = float(grid[int(np.argmin(losses))])
    # The Wiener coefficient is defined through the realized signal power
    # E||x||^2 = nP, so the scan target uses the measured power.
    P_measured = xx_sum / (trials * n)
    target = channel.wiener(P_measured, sigma2)
    scan_ok = abs(beta_star - target) <= 0.01 + 1e-12
    ok = separated and scan_ok
    assert report(9, "mmse benefit", ok,
                  f"wer(alpha) = {wer_alpha / trials:.4f} {int_a}, "
                  f"wer(1) = {wer_one / trials:.4f} {int_1}, "
                  f"beta* = {beta_star:.2f} vs alpha(measured P) = {target:.4f}")


def test_criterion_10_bp_exact_agreement_and_waterfall():
    """BP agrees with exact decoding on >= 95% of 10^3 trials at an SNR with
    exact WER <= 10%, and the BP-only WER curve falls monotonically."""
    n, p, R, R_f, dp = 12, 7, Fraction(1, 4), Fraction(1, 2), 4
    P = channel.default_power(p, R)
    snr_db = 10.0
    sigma2 = P / (10.0 ** (snr_db / 10.0))
    trials = 1000
    agree = exact_we = 0
    for t in range(trials):
        pair = build_pair(n, p, R, R_f, "lda", seed=rng.derive_key(1010, "pair", t), delta_p=dp)
        gen = rng.generator(1010, "m", t)
        m = gen.integers(0, p, size=pair.ell)
        y = channel.awgn_transmit(encode(pair, m).point.astype(float), math.sqrt(sigma2),
                                  rng.derive_key(1010, "w", t))
        exact = mmse_decode_exact(pair, y, P, sigma2)
        exact_we += not np.array_equal(exact, m)
        agree += np.array_equal(exact, bp_decode(pair, y, P, sigma2).message)
    exact_wer = exact_we / trials
    agree_frac = agree / trials

    cfg = ExperimentConfig(n=n, p=p, R=R, R_f=R_f, kind="lda", delta_p=dp, D=2.0,
                           snr_db_grid=[2.0, 4.0, 6.0, 8.0, 10.0, 12.0],
                           trials=400, decoder="bp", master_seed=1010,
                           allow_below_threshold=True)
    curve = run_monte_carlo(cfg)
    wers = [r.wer for r in curve]
    intervals = [wilson_interval(r.word_errors, r.trials) for r in curve]
    monotone = all(
        wers[i + 1] <= wers[i] or intervals[i + 1][0] <= intervals[i][1]
        for i in range(len(wers) - 1)
    )
    waterfall = wers[0] >= 0.5 and wers[-1] <= 0.1 and wers[0] > wers[-1]
    ok = exact_wer <= 0.10 and agree_frac >= 0.95 and monotone and waterfall
    assert report(10, "bp/exact agreement + waterfall", ok,
                  f"exact WER = {exact_wer:.3f}, agreement = {agree_frac:.3f}, "
                  f"curve = {[round(w, 3) for w in wers]}")


def test_criterion_11_determinism(tmp_path):
    """Identical config + seed reproduces byte-identical CSV across two runs
    and across thread counts 1 and 8."""
    cfg = ExperimentConfig(n=8, p=5, R=Fraction(1, 4), R_f=Fraction(3, 4),
                           snr_db_grid=[8.0, 12.0], trials=100, master_seed=1111)
    paths = []
    for i, threads in enumerate([1, 1, 8]):
        path = tmp_path / f"run{i}.csv"
        emit_csv(run_monte_carlo(dataclasses.replace(cfg, threads=threads)), str(path))
        paths.append(path.read_bytes())
    ok = paths[0] == paths[1] == paths[2]
    assert report(11, "determinism", ok,
                  f"two runs + thread counts {{1,8}} byte-identical = {ok}")
