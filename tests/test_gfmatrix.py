"""GF(p) linear algebra: rank, solving, null spaces, stacked checks.

The null-space generator is the one each Construction-A lattice reads off
its reduced form of [H | I]: the first k_eff columns of its triangular
basis, mod p."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from lda_lab import rng
from lda_lab.gfmatrix import (
    GfMatrix,
    NoSolutionError,
    StackedParityCheck,
    _extend_rref,
    _rref,
    block_heights,
    rank,
    solve,
)
from lda_lab.lattice import ConstructionALattice


def test_rank_identity_and_zero():
    for p in (3, 7):
        assert rank(GfMatrix.identity(4, p)) == 4
        assert rank(GfMatrix.zeros(3, 5, p)) == 0


def test_rank_dependent_rows():
    m = GfMatrix(np.array([[1, 2], [2, 4]]), 5)  # second row = 2 * first
    assert rank(m) == 1


def test_rank_invariant_under_row_shuffle():
    gen = rng.generator(5, "shuffle")
    for trial in range(30):
        p = int(gen.choice([3, 5, 7, 11]))
        m = gen.integers(0, p, size=(6, 9))
        shuffled = m[gen.permutation(6)]
        assert rank(GfMatrix(m, p)) == rank(GfMatrix(shuffled, p))


def test_solve_identity():
    p = 7
    s = np.array([5, 0, 3])
    x = solve(GfMatrix.identity(3, p), s)
    assert np.array_equal(x, s)


def test_solve_unsatisfiable():
    with pytest.raises(NoSolutionError):
        solve(GfMatrix.zeros(2, 4, 5), np.array([1, 0]))


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve(GfMatrix.identity(3, 5), np.array([1, 2]))


def test_solve_random_systems_substitute_back():
    gen = rng.generator(11, "solve")
    for trial in range(1000):
        p = int(gen.choice([3, 5, 7, 11, 31, 101]))
        n = int(gen.integers(1, 65))
        rows = int(gen.integers(1, n + 1))
        M = GfMatrix(gen.integers(0, p, size=(rows, n)), p)
        x0 = gen.integers(0, p, size=n)
        s = M.mul_vec(x0)
        x = solve(M, s)
        assert np.array_equal(M.mul_vec(x), s)


def test_generator_single_parity_gf3():
    G = ConstructionALattice(GfMatrix(np.array([[1, 1]]), 3)).generator
    assert G.rows == 1
    # Null space of (1, 1) over GF(3) is spanned by (1, 2).
    assert tuple(G.array[0]) in {(1, 2), (2, 1)}


def test_generator_identity_gives_trivial_code():
    G = ConstructionALattice(GfMatrix.identity(4, 5)).generator
    assert G.rows == 0


def test_generator_zero_parity_full_space():
    G = ConstructionALattice(GfMatrix.zeros(1, 6, 7)).generator
    assert rank(G) == 6


def test_generator_annihilated_by_parity():
    gen = rng.generator(13, "nullspace")
    for trial in range(100):
        p = int(gen.choice([3, 5, 7]))
        n = int(gen.integers(2, 12))
        rows = int(gen.integers(1, n))
        H = GfMatrix(gen.integers(0, p, size=(rows, n)), p)
        G = ConstructionALattice(H).generator
        assert G.rows == n - rank(H)
        combo = (gen.integers(0, p, size=G.rows) @ G.array) % p if G.rows else np.zeros(n, dtype=np.int64)
        assert not H.mul_vec(combo).any()


@st.composite
def sparse_stacks(draw):
    """(U, L, p): a message block of 1-4 rows on a fine block of 1-4 rows,
    n = 2-10, entries zero with some drawn probability; a block may repeat a
    multiple of its first row, which makes it rank deficient."""
    p = draw(st.sampled_from([3, 5, 7, 11]))
    n = draw(st.integers(2, 10))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.2, 0.5, 1.0]))
    blocks = []
    for _ in range(2):
        rows = draw(st.integers(1, 4))
        block = gen.integers(0, p, size=(rows, n)) * (gen.random((rows, n)) < density)
        if rows > 1 and draw(st.booleans()):
            block[-1] = (draw(st.integers(0, p - 1)) * block[0]) % p
        blocks.append(block)
    return blocks[0], blocks[1], p


@settings(max_examples=500, deadline=None)
@given(sparse_stacks())
@example((np.array([[1, 2, 0], [2, 4, 0]]), np.array([[0, 1, 1]]), 5))  # U deficient
@example((np.array([[1, 0, 1]]), np.array([[1, 1, 0], [3, 3, 0]]), 3))  # L deficient
@example((np.array([[0, 1, 1]]), np.array([[0, 1, 1]]), 7))  # U inside the row space of L
def test_extended_reduction_is_the_reduction_of_the_stack(stack):
    upper, lower, p = stack
    H = np.vstack([upper, lower])
    whole = _rref(np.hstack([H, np.eye(len(H), dtype=np.int64)]), p)
    fine = _rref(np.hstack([lower, np.eye(len(lower), dtype=np.int64)]), p)
    red, pivots = _extend_rref(fine, upper, p)
    n = H.shape[1]
    event(f"rank {sum(c < n for c in pivots)} of {len(H)}")
    assert pivots == whole[1]
    assert np.array_equal(red, whole[0])


def test_stacked_parity_check_shapes():
    p = 5
    upper = GfMatrix.zeros(2, 8, p)
    lower = GfMatrix.zeros(2, 8, p)
    stack = StackedParityCheck(upper=upper, lower=lower)
    assert stack.ell == 2 and stack.r == 2 and stack.n == 8 and stack.p == p
    assert (stack.R, stack.R_f) == (Fraction(1, 2), Fraction(3, 4))
    assert stack.full.rows == 4


def test_stacked_parity_check_refuses_blocks_that_break_its_rates():
    # ell + r = n (R = 0), a zero-height block (R = R_f or R_f = 1), and
    # blocks of different widths or moduli.
    for ell, r, n in ((2, 2, 4), (3, 3, 4), (0, 2, 8), (2, 0, 8)):
        with pytest.raises(ValueError, match=f"block heights {ell} and {r} at n = {n} break"):
            StackedParityCheck(GfMatrix.zeros(ell, n, 5), GfMatrix.zeros(r, n, 5))
    for upper, lower in ((GfMatrix.zeros(2, 8, 5), GfMatrix.zeros(2, 7, 5)),
                         (GfMatrix.zeros(2, 8, 5), GfMatrix.zeros(2, 8, 7))):
        with pytest.raises(ValueError, match="matching modulus and width"):
            StackedParityCheck(upper, lower)


@pytest.mark.parametrize("n", [0, -4])
def test_block_heights_refuse_a_dimension_below_one(n):
    # Both the pair rule and the fine-code rule: at n = 0 the rates give
    # integral heights 0, and at n = -4 negative ones.
    for R in (Fraction(1, 2), None):
        with pytest.raises(ValueError, match=f"n = {n} must be at least 1"):
            block_heights(n, R, Fraction(3, 4))


def test_block_heights_refuse_a_dimension_above_the_largest():
    # Refused before any matrix of that size is drawn; the largest passes.
    from lda_lab.gfmatrix import MAX_DIMENSION

    assert block_heights(MAX_DIMENSION, Fraction(1, 4), Fraction(3, 4)) == (
        MAX_DIMENSION // 2, MAX_DIMENSION // 4)
    for n in (MAX_DIMENSION + 4, 2**31):
        with pytest.raises(ValueError, match=f"n = {n} is above {MAX_DIMENSION}"):
            block_heights(n, Fraction(1, 4), Fraction(3, 4))


def test_matrices_are_immutable():
    m = GfMatrix.identity(3, 5)
    with pytest.raises(ValueError):
        m.array[0, 0] = 2


def test_modulus_is_refused_where_int64_arithmetic_could_overflow():
    # On a 1 x 2 matrix the bound is (p - 1)^2 * 2 < 2^63, i.e. p <= 2^31:
    # 2^31 - 1 is the largest prime below it and 2^31 + 11 the least above.
    below, above = 2**31 - 1, 2**31 + 11
    m = GfMatrix(np.array([[below - 1, below - 1]]), below)
    assert m.mul_vec(np.array([below - 1, below - 1])).tolist() == [2 * (below - 1) ** 2 % below]
    assert GfMatrix.random(1, 2, below, rng.generator(1, "modulus")).array.max() < below
    for make in (lambda: GfMatrix(np.zeros((1, 2), dtype=np.int64), above),
                 lambda: GfMatrix.random(1, 2, above, rng.generator(1, "modulus"))):
        with pytest.raises(ValueError, match=f"modulus p = {above} is too large for int64 "
                           r"arithmetic on a 1 x 2 matrix: \(p - 1\)\^2 \* 2 >= 2\^63"):
            make()
