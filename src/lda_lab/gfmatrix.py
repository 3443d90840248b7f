"""Dense matrices over GF(p): elimination, rank, solving, stacked checks.

Entries are numpy int64 arrays reduced mod p.  Elimination pivots on the
first nonzero column with the smallest row index, so ranks and solutions
are identical across platforms and row orders of equal content.
``_rref_stack`` is the one reduction: it reduces a (B, rows, cols) stack
in one pass, for the set-up of many lattices at once, and a single matrix
as a stack of one.  Each matrix gets its reduced form, which is unique;
``rref_alone`` in ``tests/oracles.py`` reduces one matrix alone as its
oracle.
``_rank_stack`` gives only the ranks of a stack, with no reduced form, and
is the one rank routine: ``rank`` reads off it, as does the support search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .fieldcore import is_prime


class NoSolutionError(ValueError):
    """The linear system M x = s has no solution over GF(p)."""


def check_modulus(p: int, rows: int, cols: int) -> None:
    """Refuse a modulus at which int64 arithmetic on a rows x cols matrix
    over GF(p) can overflow: a product of residues reaches (p - 1)^2, and a
    matrix-vector product sums max(rows, cols) of them."""
    size = max(rows, cols, 1)
    if (p - 1) ** 2 * size >= 2**63:
        raise ValueError(f"modulus p = {p} is too large for int64 arithmetic on a {rows} x {cols} "
                         f"matrix: (p - 1)^2 * {size} >= 2^63")


class GfMatrix:
    """An immutable dense matrix over GF(p)."""

    __slots__ = ("array", "p")

    def __init__(self, array: np.ndarray, p: int):
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        shape = np.shape(array)
        if len(shape) != 2:
            raise ValueError("GfMatrix expects a 2-D array")
        check_modulus(p, *shape)
        a = np.asarray(array, dtype=np.int64) % p
        a.setflags(write=False)
        self.array = a
        self.p = p

    @property
    def rows(self) -> int:
        return self.array.shape[0]

    @property
    def cols(self) -> int:
        return self.array.shape[1]

    @classmethod
    def zeros(cls, rows: int, cols: int, p: int) -> "GfMatrix":
        return cls(np.zeros((rows, cols), dtype=np.int64), p)

    @classmethod
    def identity(cls, n: int, p: int) -> "GfMatrix":
        return cls(np.eye(n, dtype=np.int64), p)

    @classmethod
    def random(cls, rows: int, cols: int, p: int, gen: np.random.Generator) -> "GfMatrix":
        check_modulus(p, rows, cols)  # before the draw, which cannot hold such entries
        return cls(gen.integers(0, p, size=(rows, cols), dtype=np.int64), p)

    def mul_vec(self, x: np.ndarray) -> np.ndarray:
        """M x^T mod p for an integer vector x."""
        return (self.array @ (np.asarray(x, dtype=np.int64) % self.p)) % self.p

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GfMatrix)
            and self.p == other.p
            and self.array.shape == other.array.shape
            and bool(np.array_equal(self.array, other.array))
        )

    def __repr__(self) -> str:
        return f"GfMatrix({self.rows}x{self.cols} mod {self.p})"


def _rref_stack(a: np.ndarray, p: int) -> list[tuple[np.ndarray, list[int]]]:
    """The reduced row echelon form and pivot columns of each matrix of a
    (B, rows, cols) stack, by one Gauss-Jordan pass over the whole stack.
    Rows are not swapped: in each column every matrix takes as pivot its
    first row that is not yet a pivot row and is nonzero there, scales it
    to 1 and clears the column from its other rows; at the end each
    matrix's pivot rows are put in the order of their columns and the rest,
    all zero, after them.  The reduced form is unique, so each matrix comes
    out as a row-swapping reduction of it alone gives it (``rref_alone`` in
    ``tests/oracles.py``).  Rows that are not yet pivot rows are zero left
    of the column, so only the columns from it on change.  A stack of one,
    such as ``solve``'s system, takes the same pass."""
    m = a.copy()
    B, rows, cols = m.shape
    batch = np.arange(B)
    free = np.ones((B, rows), dtype=bool)  # the rows not yet pivot rows
    lead = np.full((B, rows), cols)  # each row's pivot column, cols for none
    for c in range(cols):
        if not free.any():
            break
        candidates = np.logical_and(m[:, :, c], free)
        row = candidates.argmax(axis=1)
        has = candidates[batch, row]
        if not has.any():
            continue
        tail = m[:, :, c:]
        pivot = tail[batch, row]
        inverses = [pow(v, -1, p) if v else 0 for v in (pivot[:, 0] * has).tolist()]
        pivot = pivot * np.array(inverses, dtype=np.int64)[:, None] % p  # 0 without a pivot
        factors = tail[:, :, 0].copy()
        factors[batch, row] -= 1  # so the pivot row v u becomes v u - (v - 1) u = u
        tail -= factors[:, :, None] * pivot[:, None, :]
        tail %= p
        free[batch[has], row[has]] = False
        lead[batch[has], row[has]] = c
    order = lead.argsort(axis=1, kind="stable")
    m = np.take_along_axis(m, order[:, :, None], axis=1)
    lead = np.take_along_axis(lead, order, axis=1)
    return [(red, columns[columns < cols].tolist()) for red, columns in zip(m, lead)]


def _rank_stack(a: np.ndarray, p: int) -> np.ndarray:
    """The rank of each matrix of a (B, rows, cols) stack, by one
    elimination pass over the whole stack and over the shorter side of its
    matrices (a matrix and its transpose have one rank).  In each column
    every matrix takes its first row v u that is nonzero there and replaces
    each later column x by v x - x_c u, which zeroes its entry of the
    column in every row, the pivot row included; u is then independent of
    the rows left, so the rank is the number of columns that had a pivot.
    No row is swapped or scaled by an inverse, and no form is kept; the
    products stay below (p - 1)^2, which ``check_modulus`` bounds."""
    # (cols, B, rows): each column of every matrix is one contiguous block.
    m = np.array(a.transpose((1, 0, 2) if a.shape[1] < a.shape[2] else (2, 0, 1)),
                 dtype=np.int64, order="C")
    cols, B, _ = m.shape
    batch = np.arange(B)
    leads = np.empty((cols, B), dtype=np.int64)  # each column's pivot value, 0 for none
    for c in range(cols):
        column = m[c]
        pivot = m[c:, batch, (column != 0).argmax(axis=1)]
        leads[c] = pivot[0]
        if c + 1 < cols:
            tail = m[c + 1:]
            removed = column * pivot[1:, :, None]
            # A matrix with no pivot here is zero in the column: x stays x.
            tail *= np.maximum(pivot[0], 1)[:, None]
            tail -= removed
            tail %= p
    return np.count_nonzero(leads, axis=0)


def rank(M: GfMatrix) -> int:
    """Row rank over GF(p)."""
    return int(_rank_stack(M.array[None], M.p)[0])


def solve(M: GfMatrix, s: np.ndarray) -> np.ndarray:
    """A particular solution x of M x^T = s^T over GF(p).

    Free variables are set to 0.  Raises NoSolutionError when the system
    is inconsistent and ValueError on a dimension mismatch.
    """
    s = np.asarray(s, dtype=np.int64) % M.p
    if s.shape != (M.rows,):
        raise ValueError(f"syndrome length {s.shape} does not match {M.rows} rows")
    aug = np.hstack([M.array, s.reshape(-1, 1)])
    red, pivots = _rref_stack(aug[None], M.p)[0]
    if M.cols in pivots:
        raise NoSolutionError("inconsistent linear system over GF(p)")
    x = np.zeros(M.cols, dtype=np.int64)
    for i, c in enumerate(pivots):
        x[c] = red[i, M.cols]
    return x


# The largest code length of a pair or fine code.  A lattice's search holds
# n x n float matrices (the basis, Q^T, R and their working copies, about
# 64 n^2 bytes), about 1 GiB at n = 4096; far below it, the searches run
# out of their node budgets.
MAX_DIMENSION = 4096


def block_heights(n: int, R: Fraction | None, R_f: Fraction) -> tuple[int, int]:
    """The rate rule of a nested pair: the heights (ell, r) = (n(R_f - R),
    n(1 - R_f)) of its message and fine blocks.  Raises ValueError unless
    1 <= n <= MAX_DIMENSION, 0 < R < R_f < 1 and both heights are integers.
    ``R = None`` is the rule of a fine code alone: 0 < R_f < 1, an integral
    r, and ell = 0."""
    if n < 1:
        raise ValueError(f"n = {n} must be at least 1")
    if n > MAX_DIMENSION:
        raise ValueError(f"n = {n} is above {MAX_DIMENSION}, the largest code length whose "
                         "n x n lattice matrices are held")
    if R is None:
        if not 0 < R_f < 1:
            raise ValueError(f"rate R_f = {R_f} breaks 0 < R_f < 1")
    elif not 0 < R < R_f < 1:
        raise ValueError(f"rates R = {R}, R_f = {R_f} break 0 < R < R_f < 1")
    ell, r = (0 if R is None else n * (R_f - R)), n * (1 - R_f)
    if ell.denominator != 1 or r.denominator != 1:
        raise ValueError(f"rates R = {R}, R_f = {R_f} give non-integral block heights "
                         f"{ell}, {r} at n = {n}")
    return int(ell), int(r)


@dataclass(frozen=True)
class StackedParityCheck:
    """H = [upper; lower] with upper an l x n block and lower an r x n block.
    The rates are read off the heights: R = 1 - (l + r)/n and R_f = 1 - r/n,
    and heights breaking 0 < R < R_f < 1 are refused."""

    upper: GfMatrix
    lower: GfMatrix
    full: GfMatrix = field(init=False)

    n = property(lambda self: self.upper.cols)
    R = property(lambda self: Fraction(self.n - self.ell - self.r, self.n))
    R_f = property(lambda self: Fraction(self.n - self.r, self.n))

    def __post_init__(self) -> None:
        if self.upper.p != self.lower.p or self.upper.cols != self.lower.cols:
            raise ValueError("stacking requires matching modulus and width")
        if not (self.ell >= 1 and self.r >= 1 and self.ell + self.r < self.n):
            raise ValueError(f"block heights {self.ell} and {self.r} at n = {self.n} break "
                             "0 < R < R_f < 1")
        object.__setattr__(self, "full", GfMatrix(np.vstack([self.upper.array, self.lower.array]), self.p))

    @property
    def p(self) -> int:
        return self.upper.p

    @property
    def ell(self) -> int:
        return self.upper.rows

    @property
    def r(self) -> int:
        return self.lower.rows
