"""Construction-A lattices and their computational geometry.

A lattice here is the preimage of a p-ary code under reduction mod p:
x is a lattice point iff x is integral and H x^T = 0 mod p.  Closest-point
search is exact, by enumerating the code and rounding coordinate-wise per
codeword; an independent brute-force oracle enumerates integer points in
a ball and filters by membership, so the two routes can be pitted against
each other in tests.

All volume formulas are evaluated in log space: p^n overflows immediately
at realistic parameters.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .expander import BudgetExceededError
from .fieldcore import is_prime
from .gfmatrix import GfMatrix, _rref, generator_from_parity, rank

DEFAULT_ENUMERATION_BUDGET = 100_000_000
DEFAULT_QUANTIZER_BUDGET = 250_000
DEFAULT_SUPPORT_BUDGET = 2_000_000


# ---------------------------------------------------------------------------
# Ball volumes and radii


def log_ball_volume(n: int, rho: float) -> float:
    """log of vol(B_n(rho)) = (sqrt(pi) rho)^n / Gamma(n/2 + 1)."""
    if n < 1 or rho <= 0:
        raise ValueError("need n >= 1 and rho > 0")
    return n * math.log(math.sqrt(math.pi) * rho) - math.lgamma(n / 2 + 1)


def ball_volume(n: int, rho: float) -> float:
    return math.exp(log_ball_volume(n, rho))


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


@dataclass(frozen=True)
class BallSpec:
    center: np.ndarray
    radius: float
    dim: int

    def __post_init__(self) -> None:
        c = np.asarray(self.center, dtype=float)
        if c.shape != (self.dim,):
            raise ValueError("center length disagrees with dim")
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        object.__setattr__(self, "center", c)


# ---------------------------------------------------------------------------
# Integer point enumeration

def _count_rec(center: np.ndarray, rr: float, i: int) -> int:
    """Count integer points of the ball by interval recursion; the last
    coordinate is closed-form."""
    c = center[i]
    r = math.sqrt(rr)
    lo = math.ceil(c - r)
    hi = math.floor(c + r)
    if lo > hi:
        return 0
    if i == len(center) - 1:
        return hi - lo + 1
    total = 0
    for z in range(lo, hi + 1):
        rem = rr - (z - c) ** 2
        if rem >= 0:
            total += _count_rec(center, rem, i + 1)
    return total


def count_integer_points(ball: BallSpec, budget: int = DEFAULT_ENUMERATION_BUDGET) -> int:
    """|Z^n intersect ball|, exact.  Refuses when the volume-based upper
    bound on the count exceeds the budget, reporting the estimate."""
    lo, hi = lemma2_bounds(ball)
    if hi > budget:
        raise BudgetExceededError(
            f"integer-point enumeration refused: upper bound {hi:.3g} points "
            f"exceeds budget {budget} (ball volume ~ {ball_volume(ball.dim, ball.radius):.3g})"
        )
    return _count_rec(ball.center, ball.radius**2, 0)


def lemma2_bounds(ball: BallSpec) -> tuple[float, float]:
    """vol * max(1 - sqrt(n)/2rho, 0)^n <= N <= vol * (1 + sqrt(n)/2rho)^n."""
    n, rho = ball.dim, ball.radius
    vol = ball_volume(n, rho)
    shrink = max(1.0 - math.sqrt(n) / (2 * rho), 0.0)
    grow = 1.0 + math.sqrt(n) / (2 * rho)
    return vol * shrink**n, vol * grow**n


def integer_points_in_ball(ball: BallSpec, budget: int = DEFAULT_ENUMERATION_BUDGET):
    """Yield the integer points of the ball as int64 rows, in chunks."""
    _, hi = lemma2_bounds(ball)
    if hi > budget:
        raise BudgetExceededError(
            f"integer-point enumeration refused: upper bound {hi:.3g} exceeds budget {budget}"
        )
    n = ball.dim
    prefix = np.zeros(n, dtype=np.int64)

    def rec(rr: float, i: int):
        c = ball.center[i]
        r = math.sqrt(rr)
        lo = math.ceil(c - r)
        hi_i = math.floor(c + r)
        if lo > hi_i:
            return
        if i == n - 1:
            vals = np.arange(lo, hi_i + 1, dtype=np.int64)
            chunk = np.tile(prefix, (len(vals), 1))
            chunk[:, n - 1] = vals
            yield chunk
            return
        for z in range(lo, hi_i + 1):
            rem = rr - (z - c) ** 2
            if rem >= 0:
                prefix[i] = z
                yield from rec(rem, i + 1)

    yield from rec(ball.radius**2, 0)


def count_congruent_in_ball(
    x: np.ndarray, mu: int, ball: BallSpec, p: int, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> int:
    """|{z in ball, z integral, z = mu*x mod p}|.

    Substituting z = a + p*k with a = mu*x mod p turns this into a plain
    integer-point count in a rescaled ball.
    """
    a = (mu * np.asarray(x, dtype=np.int64)) % p
    inner = BallSpec(center=(ball.center - a) / p, radius=ball.radius / p, dim=ball.dim)
    return count_integer_points(inner, budget=budget)


def lemmaC_bound(ball: BallSpec, p: int) -> float:
    """1 + (4 rho^2/p^2) (8 n rho^2 / p^2)^(4 rho^2/p^2)."""
    q = 4.0 * ball.radius**2 / p**2
    return 1.0 + q * (2.0 * ball.dim * q) ** q


def volume_ratio_check(
    n: int, m: int, rho: float, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> tuple[float, float]:
    """Exact |Z^(n-m) ∩ B(rho)| / |Z^n ∩ B(rho)| against its asymptotic bound.

    Returns (exact_ratio, bound); the bound is asymptotic, so callers
    should report the slack bound/exact rather than assert it raw.
    """
    if not 0 <= m <= n / 2:
        raise ValueError("need 0 <= m <= n/2")
    if rho <= math.sqrt(n) / 2:
        raise ValueError("bound requires rho > sqrt(n)/2")
    low = count_integer_points(BallSpec(np.zeros(n - m), rho, n - m), budget)
    high = count_integer_points(BallSpec(np.zeros(n), rho, n), budget)
    exact = low / high
    log_bound = (
        (n + 1) * math.log(math.sqrt(n))
        - (n - m + 1) * math.log(math.sqrt(n - m))
        - m * 0.5 * math.log(2 * math.pi * math.e)
        - m * math.log(rho)
        + n * math.log1p(2 * math.sqrt(n) / (2 * rho - math.sqrt(n)))
    )
    return exact, math.exp(log_bound)


# ---------------------------------------------------------------------------
# Construction-A lattices


def _lex_min_rows(rows: np.ndarray) -> np.ndarray:
    """Lexicographically smallest row of a 2-D int array."""
    order = np.lexsort(rows.T[::-1])
    return rows[order[0]]


@dataclass(frozen=True)
class MinDistanceResult:
    value: float
    exact: bool
    weight: int | None  # minimum Hamming weight found, when any


class ConstructionALattice:
    """Lattice of integer vectors x with H x^T = 0 mod p."""

    def __init__(self, H: GfMatrix):
        if not is_prime(H.p) or H.p == 2:
            raise ValueError("lattice constructions require an odd prime")
        self.H = H
        self.p = H.p
        self.n = H.cols
        self.k_eff = self.n - rank(H)
        self._generator: GfMatrix | None = None
        self._codewords: np.ndarray | None = None
        self._codewords_lock = threading.Lock()  # one build when threads share the lattice

    @property
    def generator(self) -> GfMatrix:
        if self._generator is None:
            self._generator = generator_from_parity(self.H)
        return self._generator

    @property
    def log_volume(self) -> float:
        """log vol = (n - k_eff) log p."""
        return (self.n - self.k_eff) * math.log(self.p)

    def volume(self) -> float:
        return math.exp(self.log_volume)

    def contains(self, x: np.ndarray) -> bool:
        x = np.asarray(x)
        if x.shape != (self.n,) or not np.all(x == np.floor(x)):
            return False
        return not np.any(self.H.mul_vec(x.astype(np.int64)))

    def codewords(self, budget: int = DEFAULT_QUANTIZER_BUDGET) -> np.ndarray:
        """All p^k_eff codewords as an int64 array (cached)."""
        size = self.p**self.k_eff
        if size > budget:
            raise BudgetExceededError(
                f"codeword enumeration refused: p^k = {size} exceeds budget {budget}"
            )
        with self._codewords_lock:
            if self._codewords is None:
                if self.k_eff == 0:
                    self._codewords = np.zeros((1, self.n), dtype=np.int64)
                else:
                    grids = np.meshgrid(*([np.arange(self.p)] * self.k_eff), indexing="ij")
                    coeffs = np.stack(grids).reshape(self.k_eff, -1).T.astype(np.int64)
                    self._codewords = (coeffs @ self.generator.array) % self.p
        return self._codewords

    def quantize(self, y: np.ndarray, budget: int = DEFAULT_QUANTIZER_BUDGET) -> np.ndarray:
        """Exact closest lattice point to y; ties broken by lexicographic
        order of the candidate point.

        For each codeword c the nearest point of c + pZ^n is c + p*round((y-c)/p)
        coordinate-wise; minimizing over codewords is exact.
        """
        y = np.asarray(y, dtype=float)
        if y.shape != (self.n,):
            raise ValueError(f"expected length-{self.n} vector")
        C = self.codewords(budget)
        K = np.rint((y - C) / self.p)
        Z = C + self.p * K.astype(np.int64)
        d2 = ((y - Z) ** 2).sum(axis=1)
        best = d2.min()
        ties = np.nonzero(d2 == best)[0]
        if len(ties) == 1:
            return Z[ties[0]]
        return _lex_min_rows(Z[ties])

    def closest_point_bruteforce(
        self, y: np.ndarray, budget: int = DEFAULT_ENUMERATION_BUDGET
    ) -> np.ndarray:
        """Independent CVP oracle: enumerate integer points in a ball around y
        that surely contains a lattice point, filter by membership, minimize.

        Shares no code path with :meth:`quantize` beyond the tie rule.
        """
        y = np.asarray(y, dtype=float)
        anchor = self.p * np.rint(y / self.p).astype(np.int64)  # always a lattice point
        r0 = float(np.linalg.norm(y - anchor))
        if r0 == 0.0:
            return anchor
        ball = BallSpec(center=y, radius=r0 * (1 + 1e-12) + 1e-9, dim=self.n)
        best: np.ndarray | None = None
        best_d2 = math.inf
        for chunk in integer_points_in_ball(ball, budget=budget):
            member = ~np.any((self.H.array @ chunk.T) % self.p, axis=0)
            pts = chunk[member]
            if pts.size == 0:
                continue
            d2 = ((y - pts) ** 2).sum(axis=1)
            i = int(np.argmin(d2))
            cand_d2 = d2[i]
            tie_idx = np.nonzero(d2 <= cand_d2)[0]
            cand = _lex_min_rows(pts[tie_idx]) if len(tie_idx) > 1 else pts[i]
            if cand_d2 < best_d2 or (cand_d2 == best_d2 and _lex_before(cand, best)):
                best, best_d2 = cand, cand_d2
        assert best is not None  # the anchor point is always enumerated
        return best

    def min_hamming_weight(
        self,
        w_max: int,
        budget: int = DEFAULT_SUPPORT_BUDGET,
    ) -> int | None:
        """Least Hamming weight w <= w_max of a nonzero codeword (equivalently,
        of a lattice vector outside pZ^n), or None when no such word exists.

        Enumerates supports of size w and tests the corresponding column
        submatrix for rank deficiency: a nonzero codeword supported inside J
        exists iff rank(H[:, J]) < |J|.  A deficiency at size w with no
        deficiency at any smaller size pins the minimum weight exactly.
        """
        total = sum(math.comb(self.n, w) for w in range(1, min(w_max, self.n) + 1))
        if total > budget:
            raise BudgetExceededError(
                f"support enumeration refused: {total} supports exceed budget {budget}"
            )
        Harr = self.H.array
        # Row-support bitmask per column.  A dependency with all coefficients
        # nonzero forces every column's rows to be covered by the others', so
        # supports with a "private" row are pruned without elimination; a
        # dependency that zeroes some coefficient lives on a smaller support
        # and is caught at a lower w, keeping the returned weight exact.
        masks = [0] * self.n
        for r, c in zip(*np.nonzero(Harr)):
            masks[c] |= 1 << int(r)
        for w in range(1, min(w_max, self.n) + 1):
            for J in combinations(range(self.n), w):
                covered = True
                for j in J:
                    others = 0
                    for k in J:
                        if k != j:
                            others |= masks[k]
                    if masks[j] & ~others:
                        covered = False
                        break
                if covered and len(_rref(Harr[:, J], self.p)[1]) < w:
                    return w
        return None

    def min_euclidean_distance(
        self, w_max: int, budget: int = DEFAULT_SUPPORT_BUDGET
    ) -> MinDistanceResult:
        """min{p, sqrt(w)} for the least codeword weight w <= w_max, else the
        certified lower bound min{p, sqrt(w_max + 1)}."""
        if self.k_eff == 0:
            # Code is {0}: the lattice is exactly pZ^n.
            return MinDistanceResult(value=float(self.p), exact=True, weight=None)
        w = self.min_hamming_weight(w_max, budget)
        if w is not None:
            return MinDistanceResult(value=min(float(self.p), math.sqrt(w)), exact=True, weight=w)
        if w_max >= self.n:
            # All weights exhausted and no codeword: impossible unless k_eff = 0.
            return MinDistanceResult(value=float(self.p), exact=True, weight=None)
        return MinDistanceResult(
            value=min(float(self.p), math.sqrt(w_max + 1)), exact=False, weight=None
        )

    def hermite_gain(self, d_emin: float) -> float:
        """gamma = d_Emin^2 / vol^(2/n)."""
        return d_emin**2 / math.exp(2.0 * self.log_volume / self.n)

    def effective_radius(self) -> float:
        """Exact rho with ball_volume(n, rho) = vol(lattice), via logs."""
        log_rho = (self.log_volume + math.lgamma(self.n / 2 + 1)) / self.n - 0.5 * math.log(
            math.pi
        )
        return math.exp(log_rho)


def _lex_before(a: np.ndarray, b: np.ndarray | None) -> bool:
    if b is None:
        return True
    return tuple(a) < tuple(b)
