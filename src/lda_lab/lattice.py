"""Construction-A lattices and their computational geometry.

A lattice here is the preimage of a p-ary code under reduction mod p:
x is a lattice point iff x is integral and H x^T = 0 mod p.  Each lattice
holds one reduced row echelon form of [H | I], its own or one handed to it
(a nested pair extends its fine lattice's form by the message rows), and
reads everything else straight off it: the pivots, the row transform for
the encoder, and the triangular Construction-A basis (free columns e_f plus
the pivot entries as residues in (-p/2, p/2), pivot columns p e_c), whose
first k_eff columns mod p are the generator.  One modified Gram-Schmidt
pass sorts that basis by least residual length and factors it, on the
first search.  Closest-point and shortest-vector search are exact
Schnorr-Euchner depth-first enumerations on the factored basis (Agrell,
Eriksson, Vardy and Zeger,
"Closest point search in lattices", IEEE-IT 2002; Viterbo and Boutros,
IEEE-IT 1999), bounded by a budget of visited search nodes.  An
independent brute-force oracle enumerates integer points in a ball and
filters by membership, so the two routes can be pitted against each other
in tests.

All volume formulas are evaluated in log space: p^n overflows immediately
at realistic parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .expander import BudgetExceededError
from .fieldcore import is_prime
from .gfmatrix import GfMatrix, NoSolutionError, _rref
from .gfmatrix import rank  # noqa: F401  (re-exported: the benchmark traces ``lattice.rank``)

DEFAULT_ENUMERATION_BUDGET = 100_000_000
DEFAULT_QUANTIZER_BUDGET = 250_000
DEFAULT_SUPPORT_BUDGET = 2_000_000
SUPPORT_CHUNK = 4096  # supports pruned per pass; bounds the pass's temporaries


# ---------------------------------------------------------------------------
# Ball volumes and radii


def log_ball_volume(n: int, rho: float) -> float:
    """log of vol(B_n(rho)) = (sqrt(pi) rho)^n / Gamma(n/2 + 1)."""
    if n < 1 or rho <= 0:
        raise ValueError("need n >= 1 and rho > 0")
    return n * math.log(math.sqrt(math.pi) * rho) - math.lgamma(n / 2 + 1)


def ball_volume(n: int, rho: float) -> float:
    return math.exp(log_ball_volume(n, rho))


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

def _ball_runs(ball: BallSpec, budget: int):
    """Walk the integer points of the ball by interval recursion, yielding
    each run along the last axis as (prefix, lo, hi): the points
    prefix + (z,) for lo <= z <= hi.  The prefix list is reused between
    runs.  Refuses when the volume-based upper bound on the count exceeds
    the budget, reporting the estimate."""
    _, bound = lemma2_bounds(ball)
    if bound > budget:
        raise BudgetExceededError(
            f"integer-point enumeration refused: upper bound {bound:.3g} points "
            f"exceeds budget {budget} (ball volume ~ {ball_volume(ball.dim, ball.radius):.3g})"
        )
    center = ball.center.tolist()
    last = ball.dim - 1
    prefix = [0] * last

    def walk(rr: float, i: int):
        c = center[i]
        r = math.sqrt(rr)
        lo, hi = math.ceil(c - r), math.floor(c + r)
        if i == last:
            if lo <= hi:
                yield prefix, lo, hi
            return
        for z in range(lo, hi + 1):
            rem = rr - (z - c) ** 2
            if rem >= 0:
                prefix[i] = z
                yield from walk(rem, i + 1)

    yield from walk(ball.radius**2, 0)


def count_integer_points(ball: BallSpec, budget: int = DEFAULT_ENUMERATION_BUDGET) -> int:
    """|Z^n intersect ball|, exact: the summed run lengths of the ball walk."""
    return sum(hi - lo + 1 for _prefix, lo, hi in _ball_runs(ball, budget))


def lemma2_bounds(ball: BallSpec) -> tuple[float, float]:
    """vol * max(1 - sqrt(n)/2rho, 0)^n <= N <= vol * (1 + sqrt(n)/2rho)^n."""
    n, rho = ball.dim, ball.radius
    vol = ball_volume(n, rho)
    shrink = max(1.0 - math.sqrt(n) / (2 * rho), 0.0)
    grow = 1.0 + math.sqrt(n) / (2 * rho)
    return vol * shrink**n, vol * grow**n


def integer_points_in_ball(ball: BallSpec, budget: int = DEFAULT_ENUMERATION_BUDGET):
    """Yield the integer points of the ball as int64 rows, one chunk per run
    of the ball walk."""
    for prefix, lo, hi in _ball_runs(ball, budget):
        chunk = np.empty((hi - lo + 1, ball.dim), dtype=np.int64)
        chunk[:, :-1] = prefix
        chunk[:, -1] = np.arange(lo, hi + 1)
        yield chunk


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


def checked_point(y: np.ndarray, n: int) -> np.ndarray:
    """y as a length-n float vector: the input check of every closest-point
    search and decoder.  A wrong length, NaN or infinite entries and entries
    beyond 2^52, past which floats skip integers, raise ValueError."""
    y = np.asarray(y, dtype=float)
    if y.shape != (n,):
        raise ValueError(f"expected length-{n} vector")
    if not np.isfinite(y).all():
        raise ValueError("point has non-finite entries")
    if np.abs(y).max(initial=0.0) > 2.0**52:
        raise ValueError("point has entries beyond 2^52 in magnitude")
    return y


@dataclass(frozen=True)
class MinDistanceResult:
    value: float
    exact: bool
    weight: int | None  # minimum Hamming weight found, when any


@dataclass(frozen=True)
class _SortedQR:
    """The Construction-A basis in search order and its QR factors."""

    basis: np.ndarray  # int64, one basis vector per column, in search order
    q_t: np.ndarray  # Q^T of basis = Q R
    r: list[list[float]]  # R, upper triangular with a positive diagonal


def _sorted_qr(basis: np.ndarray) -> _SortedQR:
    """Sorted QR (Wuebben et al., Electronics Letters 2001) in one modified
    Gram-Schmidt pass: each step takes the remaining column of least
    residual length, so the Gram-Schmidt lengths grow toward the last
    columns, which the search fixes first, and records its unit vector as a
    row of Q^T and its projections of every residual as a row of R.  The
    residual lengths are recomputed at every step: downdating them by the
    squared projections cancels to negative values at p = 31, n = 96.

    A picked column's residual is set to 0, which touches no other column's
    arithmetic, so its later projections are exact zeros and R is upper
    triangular; its diagonal, q . a_j = |a_j|, is positive."""
    a = basis.astype(float)
    n = a.shape[1]
    taken = np.zeros(n)  # inf on the columns already picked
    order: list[int] = []
    q_t = np.empty((n, n))
    proj = np.empty((n, n))
    for i in range(n):
        norms = (a * a).sum(axis=0) + taken
        j = int(norms.argmin())
        order.append(j)
        taken[j] = np.inf
        q = q_t[i]
        q[:] = a[:, j] / math.sqrt(norms[j])
        proj[i] = q @ a
        a -= q[:, None] * proj[i]
        a[:, j] = 0.0
    return _SortedQR(basis=basis[:, order], q_t=q_t, r=proj[:, order].tolist())


def _slack(d2: float) -> float:
    """The search radius around a best squared distance d2: wide enough that
    rounding in the search never drops a point the exact recount keeps."""
    return d2 * (1 + 1e-9) + 1e-9


def _search(r: list[list[float]], z: list[float], start: float, budget: int,
            task: str, nonzero: bool = False) -> np.ndarray:
    """Schnorr-Euchner enumeration of the integer u with |z - R u|^2 inside
    the radius, R upper triangular.  The last coordinate is fixed first, and
    each level zig-zags from the integer nearest its center (k, k + s, k - s,
    k + 2s, ... toward the center's side s), so distances never decrease and
    the first integer outside the radius ends the level.  A center within
    2.5e-10 / R[l][l] above a half-integer tries the lower integer first, so
    float noise moves no node count; that misorder is under half the slack,
    so no leaf as close as the best is missed.  The squared radius starts at
    ``_slack(start)`` and shrinks to ``_slack(best)`` at every closer leaf;
    the leaves inside the final radius are returned, one row per leaf.
    ``nonzero`` skips u = 0.  Each integer tried is one node; more than
    ``budget`` nodes raise BudgetExceededError.
    """
    n = len(z)
    u = [0] * n
    leaves: list[tuple[float, tuple[int, ...]]] = []
    best = start
    bound = _slack(start)
    nodes = 0
    half = [0.5 - 2.5e-10 / row[i] for i, row in enumerate(r)]  # the tie rule

    def descend(level: int, partial: float) -> None:
        nonlocal best, bound, nodes
        row = r[level]
        c = z[level]
        for j in range(level + 1, n):
            c -= row[j] * u[j]
        diag = row[level]
        c /= diag
        k = math.floor(c + half[level])
        step = 1 if c >= k else -1
        while True:
            nodes += 1
            if nodes > budget:
                raise BudgetExceededError(
                    f"lattice {task} refused: {nodes} search nodes visited, "
                    f"over the budget of {budget} (n = {n})"
                )
            d = partial + (diag * (k - c)) ** 2
            if d > bound:
                return
            u[level] = k
            if level:
                descend(level - 1, d)
            elif not (nonzero and not any(u)):
                leaves.append((d, tuple(u)))
                if d < best:
                    best, bound = d, _slack(d)
            k += step
            step = -step - 1 if step > 0 else -step + 1

    descend(n - 1, 0.0)
    return np.array([leaf for d, leaf in leaves if d <= bound], dtype=np.int64).reshape(-1, n)


def _column_masks(H: np.ndarray) -> np.ndarray:
    """Each column's row support as bits of uint64 words: shape (words, n),
    one word per 64 rows (row r is bit r % 64 of word r // 64)."""
    packed = np.packbits(H != 0, axis=0, bitorder="little")
    packed = np.pad(packed, ((0, -len(packed) % 8), (0, 0)))
    return np.ascontiguousarray(packed.T).view(np.uint64).T


def _grow_supports(prev: np.ndarray, n: int) -> np.ndarray:
    """The size-(w + 1) subsets of range(n) in lex order, one per column,
    from the size-w ones in lex order: each a in range(n), followed by every
    size-w subset whose least element exceeds a, a suffix of ``prev``."""
    count = prev.shape[1]
    starts = np.cumsum(np.bincount(prev[0], minlength=n)).tolist()
    out = np.empty((len(prev) + 1, sum(count - s for s in starts)), dtype=prev.dtype)
    end = 0
    for a, s in enumerate(starts):
        lo, end = end, end + count - s
        out[0, lo:end] = a
        out[1:, lo:end] = prev[:, s:]
    return out


def _covered_twice(masks: np.ndarray, supports: np.ndarray) -> np.ndarray:
    """For each support (a column of ``supports``), whether every row its
    columns touch is touched by at least two of them.

    A dependency with all coefficients nonzero forces each column's rows to
    be covered by the others', so a support with a "private" row (touched
    once) has none; a dependency that zeroes some coefficient lives on a
    smaller support and is caught at a lower w, keeping the weight exact.
    """
    keep = np.ones(supports.shape[1], dtype=bool)
    for word in masks:
        once = word.take(supports[0])
        twice = np.zeros_like(once)
        for column in supports[1:]:
            m = word.take(column)
            twice |= once & m
            once |= m
        keep &= once == twice
    return keep


class ConstructionALattice:
    """Lattice of integer vectors x with H x^T = 0 mod p."""

    def __init__(self, H: GfMatrix, _reduced: tuple[np.ndarray, list[int]] | None = None):
        """``_reduced`` is rref([H | I]) mod p with its pivot columns, for a
        caller that already has it; without it the lattice reduces H itself
        on first use."""
        if not is_prime(H.p) or H.p == 2:
            raise ValueError("lattice constructions require an odd prime")
        self.H = H
        self.p = H.p
        self.n = H.cols
        if _reduced is not None:
            self._reduced = _reduced

    @cached_property
    def _reduced(self) -> tuple[np.ndarray, list[int]]:
        """rref([H | I]) mod p and its pivot columns; the right-hand block is
        T with T H = rref(H), whose rows past the rank annihilate H."""
        eye = np.eye(self.H.rows, dtype=np.int64)
        return _rref(np.hstack([self.H.array, eye]), self.p)

    @cached_property
    def _pivots(self) -> list[int]:
        """The pivot columns of H."""
        return [c for c in self._reduced[1] if c < self.n]

    @cached_property
    def _basis(self) -> np.ndarray:
        """The Construction-A basis as columns: e_f plus -rref(H)[:, f] as
        residues in (-p/2, p/2), which about halves the search time, for
        each free column f, then p e_c for each pivot column c."""
        n, p, pivots = self.n, self.p, self._pivots
        free = [c for c in range(n) if c not in pivots]
        k = len(free)
        basis = np.zeros((n, n), dtype=np.int64)
        basis[free, np.arange(k)] = 1
        basis[pivots, :k] = (p // 2 - self._reduced[0][: len(pivots), free]) % p - p // 2
        basis[pivots, k + np.arange(len(pivots))] = p
        return basis

    @cached_property
    def _sorted(self) -> _SortedQR:
        """The search basis and its QR factors, built on first search."""
        return _sorted_qr(self._basis)

    @property
    def k_eff(self) -> int:
        return self.n - len(self._pivots)

    @property
    def generator(self) -> GfMatrix:
        """The systematic generator: the first k_eff basis vectors mod p."""
        return GfMatrix(self._basis[:, : self.k_eff].T, self.p)

    @property
    def log_volume(self) -> float:
        """log vol = (n - k_eff) log p."""
        return (self.n - self.k_eff) * math.log(self.p)

    def contains(self, x: np.ndarray) -> bool:
        x = np.asarray(x)
        if x.shape != (self.n,) or not np.all(x == np.floor(x)):
            return False
        return not np.any(self.H.mul_vec(x.astype(np.int64)))

    def coset_point(self, syndrome: np.ndarray) -> np.ndarray:
        """The integer x with H x^T = syndrome mod p, free coordinates 0 and
        pivot coordinates in [0, p): the particular solution of
        ``gfmatrix.solve``, by one product with the cached row transform.
        Raises NoSolutionError when no x exists."""
        s = np.asarray(syndrome, dtype=np.int64) % self.p
        if s.shape != (self.H.rows,):
            raise ValueError(f"syndrome length {s.shape} does not match {self.H.rows} rows")
        t = (self._reduced[0][:, self.n:] @ s) % self.p
        rank_h = len(self._pivots)
        if t[rank_h:].any():
            raise NoSolutionError("inconsistent linear system over GF(p)")
        x = np.zeros(self.n, dtype=np.int64)
        x[self._pivots] = t[:rank_h]
        return x

    def codewords(self, budget: int = DEFAULT_QUANTIZER_BUDGET) -> np.ndarray:
        """All p^k_eff codewords as an int64 array, built on every call: the
        test oracle of the searches.  Refuses tables of more than ``budget``
        rows."""
        size = self.p**self.k_eff
        if size > budget:
            raise BudgetExceededError(
                f"codeword enumeration refused: p^k = {size} exceeds budget {budget}"
            )
        if self.k_eff == 0:
            return np.zeros((1, self.n), dtype=np.int64)
        grids = np.meshgrid(*([np.arange(self.p)] * self.k_eff), indexing="ij")
        coeffs = np.stack(grids).reshape(self.k_eff, -1).T.astype(np.int64)
        return (coeffs @ self.generator.array) % self.p

    def quantize(self, y: np.ndarray, budget: int = DEFAULT_QUANTIZER_BUDGET) -> np.ndarray:
        """Exact closest lattice point to y; ties broken by lexicographic
        order of the candidate point.

        The search runs on y - a for the lattice point a = p * rint(y / p),
        so its rounding does not grow with |y|, and starts from the radius
        |y - a|.  It collects every point within ``_slack`` of the best;
        their squared distances to y are then recomputed exactly and the
        lex-min of the closest is returned.  ``budget`` bounds the visited
        search nodes.
        """
        y = checked_point(y, self.n)
        form = self._sorted
        anchor = self.p * np.rint(y / self.p)
        t = y - anchor
        leaves = _search(form.r, (form.q_t @ t).tolist(), float((t * t).sum()),
                         budget, "closest-point search")
        Z = anchor.astype(np.int64) + leaves @ form.basis.T
        d2 = ((y - Z) ** 2).sum(axis=1)
        return _lex_min_rows(Z[d2 == d2.min()])

    def shortest_vector(self, budget: int = DEFAULT_QUANTIZER_BUDGET) -> np.ndarray:
        """A shortest nonzero lattice vector (the lex-min of them), exact.
        The search starts at radius p, the length of p e_1; ``budget``
        bounds the visited search nodes."""
        form = self._sorted
        leaves = _search(form.r, [0.0] * self.n, float(self.p**2), budget,
                         "shortest-vector search", nonzero=True)
        Z = leaves @ form.basis.T
        d2 = (Z * Z).sum(axis=1)
        return _lex_min_rows(Z[d2 == d2.min()])

    def closest_point_bruteforce(
        self, y: np.ndarray, budget: int = DEFAULT_ENUMERATION_BUDGET
    ) -> np.ndarray:
        """Independent CVP oracle: enumerate integer points in a ball around y
        that surely contains a lattice point, filter by membership, minimize.

        Shares no code path with :meth:`quantize` beyond the input check and
        the tie rule.
        """
        y = checked_point(y, self.n)
        anchor = self.p * np.rint(y / self.p).astype(np.int64)  # always a lattice point
        r0 = float(np.linalg.norm(y - anchor))
        if r0 == 0.0:
            return anchor
        ball = BallSpec(center=y, radius=r0 * (1 + 1e-12) + 1e-9, dim=self.n)
        # The anchor lies in the ball, so at least one member is found.
        Z = np.vstack([chunk[~np.any((self.H.array @ chunk.T) % self.p, axis=0)]
                       for chunk in integer_points_in_ball(ball, budget=budget)])
        d2 = ((y - Z) ** 2).sum(axis=1)
        return _lex_min_rows(Z[d2 == d2.min()])

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

        The supports of one size are listed in lex order as one array of
        small integers and pruned SUPPORT_CHUNK at a time on packed column
        masks (``_covered_twice``); only the survivors are row-reduced.
        More than ``budget`` supports in all are refused before any is
        built.
        """
        if w_max < 1:
            raise ValueError(f"w_max = {w_max} must be at least 1")
        n, Harr = self.n, self.H.array
        w_top = min(w_max, n)
        total = sum(math.comb(n, w) for w in range(1, w_top + 1))
        if total > budget:
            raise BudgetExceededError(
                f"support enumeration refused: {total} supports exceed budget {budget}"
            )
        masks = _column_masks(Harr)
        supports = np.arange(n, dtype=np.min_scalar_type(n))[None]
        for w in range(1, w_top + 1):
            if w > 1:
                supports = _grow_supports(supports, n)
            for lo in range(0, supports.shape[1], SUPPORT_CHUNK):
                chunk = supports[:, lo:lo + SUPPORT_CHUNK]
                for s in np.flatnonzero(_covered_twice(masks, chunk)):
                    if len(_rref(Harr[:, chunk[:, s]], self.p)[1]) < w:
                        return w
        return None

    def min_euclidean_distance(
        self, w_max: int, budget: int = DEFAULT_SUPPORT_BUDGET
    ) -> MinDistanceResult:
        """The least length d_min of a nonzero lattice vector, or a certified
        lower bound on it.

        A nonzero lattice vector lies in pZ^n (length >= p) or reduces to a
        nonzero codeword (length >= sqrt of its weight), so min{p, sqrt(w)}
        bounds d_min from below when every nonzero codeword has weight >= w.
        The bound is attained only when some least-weight word lifts to
        entries +-1.  When the support search finds a least weight w <=
        w_max, the shortest-vector search replaces the bound by d_min
        (exact=True); when it visits more than DEFAULT_QUANTIZER_BUDGET nodes,
        the bound min{p, sqrt(w)} is returned with exact=False.  With no word of weight
        <= w_max the certified bound min{p, sqrt(w_max + 1)} is returned,
        exact=False.
        """
        if self.k_eff == 0 and w_max >= 1:
            # Code is {0}: the lattice is exactly pZ^n.  A w_max below 1 goes
            # on to min_hamming_weight's refusal, whatever the code.
            return MinDistanceResult(value=float(self.p), exact=True, weight=None)
        w = self.min_hamming_weight(w_max, budget)
        if w is None:
            return MinDistanceResult(
                value=min(float(self.p), math.sqrt(w_max + 1)), exact=False, weight=None
            )
        try:
            v = self.shortest_vector()
        except BudgetExceededError:
            return MinDistanceResult(value=min(float(self.p), math.sqrt(w)), exact=False, weight=w)
        return MinDistanceResult(value=math.sqrt(int(v @ v)), exact=True, weight=w)

    def hermite_gain(self, d_emin: float) -> float:
        """gamma = d_Emin^2 / vol^(2/n)."""
        return d_emin**2 / math.exp(2.0 * self.log_volume / self.n)

    def effective_radius(self) -> float:
        """Exact rho with ball_volume(n, rho) = vol(lattice), via logs."""
        log_rho = (self.log_volume + math.lgamma(self.n / 2 + 1)) / self.n - 0.5 * math.log(
            math.pi
        )
        return math.exp(log_rho)
