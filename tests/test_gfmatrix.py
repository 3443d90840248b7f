"""GF(p) linear algebra: rank, solving, null spaces, stacked checks.

The null-space generator is the one each Construction-A lattice reads off
its reduced form of [H | I]: the first k_eff columns of its triangular
basis, mod p."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from lda_lab import rng
from lda_lab.fieldcore import is_prime
from lda_lab.gfmatrix import (
    GfMatrix,
    NoSolutionError,
    StackedParityCheck,
    _rank_stack,
    _rref_stack,
    block_heights,
    check_modulus,
    rank,
    solve,
)
from lda_lab.lattice import ConstructionALattice
from oracles import rref_alone


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
def matrix_stacks(draw):
    """(stack, p): B in {1, 2, 8, 17} matrices of one shape, 1-6 rows by
    1-12 columns, entries zero with some drawn probability; a matrix may
    repeat a multiple of its first row, which makes it rank deficient, and
    may carry an identity block on its right, as [H | I] does."""
    p = draw(st.sampled_from([3, 5, 7, 11, 31]))
    B = draw(st.sampled_from([1, 2, 8, 17]))
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 12))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = gen.integers(0, p, size=(B, rows, cols)) * (gen.random((B, rows, cols)) < draw(
        st.sampled_from([0.2, 0.5, 1.0])))
    if rows > 1:
        repeat = gen.random(B) < 0.5
        stack[repeat, -1] = (gen.integers(0, p, size=(repeat.sum(), 1)) * stack[repeat, 0]) % p
    if draw(st.booleans()):
        eye = np.broadcast_to(np.eye(rows, dtype=np.int64), (B, rows, rows))
        stack = np.concatenate([stack, eye], axis=2)
    event(f"B = {B}")
    return stack, p


@settings(max_examples=300, deadline=None)
@given(matrix_stacks())
@example((np.zeros((2, 3, 4), dtype=np.int64), 5))  # no pivot anywhere
@example((np.zeros((3, 0, 2), dtype=np.int64), 7))  # no rows: the support search's empty check
@example((np.array([[[1, 2, 0], [2, 4, 0]], [[0, 0, 1], [0, 3, 3]]]), 5))  # deficient, then full
@example((np.array([[[0, 1, 1], [0, 1, 1]], [[3, 0, 0], [0, 0, 0]]]), 7))  # pivots in different columns
def test_stacked_reduction_is_the_reduction_of_each_matrix(stack):
    a, p = stack
    for matrix, (red, pivots) in zip(a, _rref_stack(a, p), strict=True):
        alone = rref_alone(matrix, p)
        event(f"rank {len(pivots)} of {len(matrix)}")
        assert pivots == alone[1]
        assert np.array_equal(red, alone[0])


@st.composite
def single_systems(draw):
    """(a, s, p): one matrix of 0-6 rows by 0-12 columns over p in
    {2, 3, 5, 7, 31}, random with some density, all zero, or rank
    deficient (its last row a multiple of its first, or a column zero),
    and a right-hand side, half the time in the column space."""
    p = draw(st.sampled_from([2, 3, 5, 7, 31]))
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 12))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = gen.integers(0, p, size=(rows, cols)) * (gen.random((rows, cols)) < draw(
        st.sampled_from([0.2, 0.5, 1.0])))
    shape = draw(st.sampled_from(["random", "all zero", "deficient"]))
    if shape == "all zero":
        a[:] = 0
    elif shape == "deficient" and rows > 1:
        a[-1] = gen.integers(0, p) * a[0] % p
    elif shape == "deficient" and cols:
        a[:, gen.integers(0, cols)] = 0
    s = a @ gen.integers(0, p, size=cols) % p if draw(st.booleans()) else gen.integers(0, p, size=rows)
    event(f"p = {p}, {shape}, {'no rows' if not rows else 'no columns' if not cols else 'both'}")
    return a, s, p


@settings(max_examples=300, deadline=None)
@given(single_systems())
@example((np.zeros((0, 4), dtype=np.int64), np.zeros(0, dtype=np.int64), 2))  # no rows
@example((np.zeros((3, 0), dtype=np.int64), np.array([0, 1, 0]), 5))  # no columns
@example((np.zeros((3, 4), dtype=np.int64), np.zeros(3, dtype=np.int64), 7))  # all zero
@example((np.array([[1, 1, 0], [1, 1, 0]]), np.array([1, 0]), 2))  # deficient, inconsistent
@example((np.array([[1, 1, 0], [0, 1, 1]]), np.array([1, 0]), 2))  # full rank at p = 2
def test_stack_of_one_is_the_reduction_alone(system):
    """A stack of one runs the stacked pass; its form, and ``solve``'s
    answer read off the form of [a | s], are the one-matrix oracle's."""
    a, s, p = system
    (red, pivots), = _rref_stack(a[None], p)
    alone = rref_alone(a, p)
    assert pivots == alone[1] and np.array_equal(red, alone[0])
    M = GfMatrix(a, p)
    form, columns = rref_alone(np.hstack([a, s[:, None]]), p)
    if M.cols in columns:
        with pytest.raises(NoSolutionError):
            solve(M, s)
        return
    x = solve(M, s)
    expected = np.zeros(M.cols, dtype=np.int64)
    expected[columns] = form[:len(columns), M.cols]
    assert np.array_equal(x, expected) and np.array_equal(M.mul_vec(x), s)


def largest_modulus(rows: int, cols: int) -> int:
    """The largest prime that ``check_modulus`` takes for a rows x cols matrix."""
    size = max(rows, cols, 1)
    p = math.isqrt((2**63 - 1) // size) + 1
    while not (is_prime(p) and (p - 1) ** 2 * size < 2**63):
        p -= 1
    check_modulus(p, rows, cols)
    return p


@st.composite
def rank_stacks(draw):
    """(stack, p): B in {1, 2, 8, 17} matrices of 0-70 rows by 0-8 columns
    over p = 3, 31 or the largest prime ``check_modulus`` takes for the
    shape; entries zero with some drawn probability, and sometimes a column
    zero or proportional to another in every matrix."""
    B = draw(st.sampled_from([1, 2, 8, 17]))
    rows, cols = draw(st.integers(0, 70)), draw(st.integers(0, 8))
    p = draw(st.sampled_from([3, 31, largest_modulus(rows, cols)]))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = gen.integers(0, p, size=(B, rows, cols)) * (gen.random((B, rows, cols)) < draw(
        st.sampled_from([0.1, 0.5, 1.0])))
    if cols:
        j = draw(st.integers(0, cols - 1))
        edit = draw(st.sampled_from(["none", "zero column", "proportional columns"]))
        if edit == "zero column":
            stack[:, :, j] = 0
        elif edit == "proportional columns" and cols > 1:
            k = draw(st.integers(0, cols - 1).filter(lambda k: k != j))
            stack[:, :, k] = draw(st.integers(1, p - 1)) * stack[:, :, j] % p
    event(f"p = {'largest' if p > 31 else p}")
    return stack, p


@settings(max_examples=300, deadline=None)
@given(rank_stacks())
@example((np.zeros((2, 0, 3), dtype=np.int64), 5))  # no rows
@example((np.zeros((3, 4, 0), dtype=np.int64), 7))  # no columns
@example((np.array([[[1, 2, 0], [2, 4, 0]], [[0, 0, 1], [0, 3, 3]]]), 5))  # deficient, then full
def test_rank_stack_is_the_pivot_count_of_each_reduction(stack):
    a, p = stack
    ranks = _rank_stack(a, p)
    assert ranks.tolist() == [len(rref_alone(matrix, p)[1]) for matrix in a]
    if len(a):
        assert rank(GfMatrix(a[0], p)) == ranks[0]


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
