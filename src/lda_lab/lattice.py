"""Construction-A lattices and their computational geometry.

A lattice here is the preimage of a p-ary code under reduction mod p:
x is a lattice point iff x is integral and H x^T = 0 mod p.  Each lattice
holds one reduced row echelon form of [H | I], its own or one handed to it
(a nested pair's set-up reduces its lattices' forms as stacks), and reads
everything else straight off it: the pivots, the row transform for the
encoder, and the triangular Construction-A basis (free columns e_f plus
the pivot entries as residues in (-p/2, p/2), pivot columns p e_c), whose
first k_eff columns mod p are the generator.  One modified Gram-Schmidt
pass sorts that basis by least residual length and factors it.  Lattices
set up together share a ``SetUpStack``, which reduces, builds the bases of
and factors all of them at once, each step when the first of them needs
it; a standalone lattice is a stack of one, set up by the same kernels.
Each stacked step must match, bit for bit, its one-lattice oracle in
``tests/oracles.py``.  The bounded-weight support search runs a stack of
codes at once too (``min_hamming_weights``), a single code as a stack of
one.  Closest-point and shortest-vector search are exact
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

from .expander import BudgetExceededError, _column_masks
from .gfmatrix import GfMatrix, NoSolutionError, _rank_stack, _rref_stack
from .gfmatrix import rank  # noqa: F401  (re-exported: the benchmark traces ``lattice.rank``)

DEFAULT_ENUMERATION_BUDGET = 100_000_000
DEFAULT_QUANTIZER_BUDGET = 250_000
DEFAULT_SUPPORT_BUDGET = 2_000_000
SUPPORT_CHUNK = 4096  # supports pruned per pass; bounds the pass's temporaries
# The most bytes of survivor submatrices rank-tested in one stack.
RANK_STACK_BYTES = 2**20


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


def _bases(reduced: np.ndarray, pivots: list[list[int]], p: int) -> np.ndarray:
    """The Construction-A bases of a stack of lattices of one length n, as
    a (B, n, n) stack of columns, from their reduced forms rref([H | I])
    (a (B, rows, n + rows) stack) and pivot columns.  Each basis is e_f plus
    -rref(H)[:, f] as residues in (-p/2, p/2), which about halves the search
    time, for each free column f, then p e_c for each pivot column c.  The
    ranks may differ across the stack."""
    B, rows, _cols = reduced.shape
    n = _cols - rows
    batch = np.arange(B)[:, None]
    lead = np.full((B, rows), n)  # each row's pivot column, n past the rank
    for b, cols in enumerate(pivots):
        cols = [c for c in cols if c < n]
        lead[b, :len(cols)] = cols
    is_pivot = np.zeros((B, n + 1), dtype=bool)
    is_pivot[batch, lead] = True
    is_pivot = is_pivot[:, :n]
    free = ~is_pivot
    k = free.sum(axis=1, keepdims=True)
    # Each column's basis vector: the free columns first, then the pivots.
    position = np.where(free, free.cumsum(axis=1) - 1, k + is_pivot.cumsum(axis=1) - 1)
    basis = np.zeros((B, n, n), dtype=np.int64)
    basis[batch, np.arange(n), position] = np.where(free, 1, p)
    b, i, f = np.nonzero((lead < n)[:, :, None] & free[:, None, :])
    basis[b, lead[b, i], position[b, f]] = (p // 2 - reduced[b, i, f]) % p - p // 2
    return basis


def _sorted_qr(bases: np.ndarray) -> list[_SortedQR]:
    """Sorted QR (Wuebben et al., Electronics Letters 2001) of each basis of
    a (B, n, n) stack, in one modified Gram-Schmidt pass over the stack:
    each step takes every basis's remaining column of least residual length
    (so the Gram-Schmidt lengths grow toward the last columns, which the
    search fixes first) and records its unit vector as a row of Q^T and its
    projections of every residual as a row of R.  The lengths are
    recomputed at every step, since downdating them cancels to negative
    values at p = 31, n = 96.  A picked column's residual is set to 0, so R
    is upper triangular with a positive diagonal.  Lengths are summed down
    the rows and projections taken by ``np.matmul``, one BLAS product per
    basis, so each basis gets the floats of a pass over it alone
    (``sorted_qr_alone`` in ``tests/oracles.py``), a stack of one included."""
    a = bases.astype(float)
    B, n, _n = a.shape
    flat = a.reshape(-1)
    squares, outer = np.empty_like(a), np.empty_like(a)
    norms = np.empty((B, n))
    taken = np.zeros((B, n))  # inf on the columns already picked
    order = np.empty((n, B), dtype=np.intp)
    q_t = np.empty((B, n, n))
    proj = np.empty((B, n, n))
    starts = np.arange(0, B * n, n)  # each basis's first entry in ``norms``
    column = (n * starts)[:, None] + np.arange(0, n * n, n)  # column 0's entries in ``flat``
    for i in range(n):
        np.add.reduce(np.multiply(a, a, out=squares), axis=1, out=norms)
        norms += taken
        j = norms.argmin(axis=1)
        order[i] = j
        at = starts + j
        taken.reshape(-1)[at] = np.inf
        picked = column + j[:, None]
        q = q_t[:, i]
        np.divide(flat[picked], np.sqrt(norms.reshape(-1)[at])[:, None], out=q)
        projections = np.matmul(q[:, None, :], a)
        proj[:, i] = projections[:, 0]
        a -= np.multiply(q[:, :, None], projections, out=outer)
        flat[picked] = 0.0
    return [_SortedQR(basis=bases[b][:, o], q_t=q_t[b], r=proj[b][:, o].tolist())
            for b, o in enumerate(order.T)]


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


def _children(leads: np.ndarray, n: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The supports one column larger grown from a level of supports of a
    stack of codes of length n, in (code, lex) order, whose least columns
    ``leads`` (column j of code c numbered c n + j, ``width`` columns in
    all) therefore never decrease: column a of code c joins each support
    of code c whose least column exceeds a, a run of the level that ends
    with code c's supports.  The children come code-major, then a-major,
    so in (code, lex) order as well, as each one's first column a and its
    parent's index in the level, each in the smallest unsigned dtype that
    holds it."""
    starts = np.cumsum(np.bincount(leads, minlength=width))  # the leads up to each a
    lengths = np.repeat(starts[n - 1::n], n) - starts  # to the end of a's code
    first = np.repeat(np.arange(width, dtype=np.min_scalar_type(width)), lengths)
    kind = np.min_scalar_type(len(leads))
    parent = np.repeat((starts - (np.cumsum(lengths) - lengths)).astype(kind), lengths)
    np.add(parent, np.arange(len(parent), dtype=np.min_scalar_type(len(parent))), out=parent,
           casting="unsafe")
    return first, parent


def _grow_masks(masks: np.ndarray, once: np.ndarray, twice: np.ndarray, first: np.ndarray,
                parent: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The row masks of supports each made of column ``first`` and the
    support at ``parent``, from that support's masks: (once, twice), the
    rows touched at least once and at least twice, one gather each, and
    whether each support has no private row (a row touched once only)."""
    m, o = masks.take(first, axis=1), once.take(parent, axis=1)
    t = twice.take(parent, axis=1) | (o & m)
    o |= m
    return o, t, (o == t).all(axis=0)


def _support_columns(levels, w: int, index: np.ndarray) -> np.ndarray:
    """The columns, in increasing order, of the size-w supports at ``index``
    in level w of ``levels``, each level a (first column, parent index)
    pair: (len(index), w), read off the parent links."""
    columns = np.empty((len(index), w), dtype=np.intp)
    for j in range(w):
        first, parent = levels[w - 1 - j]
        columns[:, j] = first[index]
        index = parent[index].astype(np.intp)  # an intp index takes numpy's fast path
    return columns


def _private_row_free_supports(columns: np.ndarray, n: int, w_top: int, done: np.ndarray):
    """Yield (w, supports), w <= w_top increasing, for the supports of size
    w with no private row (a row touched by one of its columns only) of
    each code of a stack of codes of length n, whose columns are the rows
    of ``columns``, column j of code c at row c n + j: the columns of each
    support, in increasing order and numbered so, as a (count, w) array,
    the supports in (code, lex) order across the yields of one w.  A
    level's supports are yielded as they are found, once at least
    SUPPORT_CHUNK have gathered (so fewer than 2 SUPPORT_CHUNK a yield),
    and once at the level's end.  A code whose entry of ``done`` the
    caller has set by the last yield of a level is not grown further: its
    supports leave the stack.

    Each level is grown from the one below it by ``_children``, for every
    code still in the stack at once.  A support's descendants add at most
    w_top - w columns of at most d_max rows each (d_max: the most rows of
    one column of its code), and a descendant with no private row covers
    all the support's private rows; so a support with more than (w_top -
    w) d_max of them is not grown, and every private-row-free support of
    size <= w_top is still reached.  Each support's rows touched once and
    twice or more are packed column masks, in the smallest unsigned type
    that holds the rows when one word does, grown from its parent's with
    one gather each, in equal passes of at most SUPPORT_CHUNK supports.  A
    level's links are built whole; of the level below, only the kept
    supports' links and masks are held."""
    width, rows = columns.shape
    masks = _column_masks(columns.T)
    if len(masks) == 1:
        masks = masks.astype(np.min_scalar_type((1 << rows) - 1))
    count = np.min_scalar_type(rows)  # a support's private rows
    d_max = np.bitwise_count(masks).sum(axis=0).reshape(-1, n).max(axis=1)
    # Level 1, each column alone, grows from the empty support, which
    # touches no row.
    levels = []
    first, parent = np.arange(width, dtype=np.min_scalar_type(width)), np.zeros(width, dtype=np.uint8)
    once = twice = np.zeros((len(masks), 1), dtype=masks.dtype)
    for w in range(1, w_top + 1):
        levels.append((first, parent))
        slack = (w_top - w) * d_max  # the private rows descendants can still cover
        # w columns have at most w d_max private rows: at or below its slack
        # no support of a code can be pruned, and where no code's can, none
        # is counted.
        prune = w < w_top and bool((w * d_max > slack).any())
        # By column, clipped to the rows: no support has more private rows.
        slack = np.repeat(np.minimum(slack, rows).astype(count), n)
        kept, grown, found = [], [], []
        # Equal passes: a short last pass would leave small arrays of a new
        # size in numpy's small-block cache on most calls.
        passes = -(-len(first) // SUPPORT_CHUNK)
        bounds = [len(first) * i // passes for i in range(passes + 1)]
        for lo, hi in zip(bounds, bounds[1:]):
            o, t, free = _grow_masks(masks, once, twice, first[lo:hi], parent[lo:hi])
            found.append(lo + np.flatnonzero(free))
            if hi >= len(first) or sum(map(len, found)) >= SUPPORT_CHUNK:
                index = np.concatenate(found)
                if len(index):
                    yield w, _support_columns(levels, w, index)
                found = []
            if w == w_top:
                continue
            if prune:
                keep = np.flatnonzero(np.bitwise_count(o ^ t).sum(axis=0, dtype=count)
                                      <= slack[first[lo:hi]])
                kept.append(lo + keep)
                o, t = o[:, keep], t[:, keep]
            grown.append((o, t))
        if w == w_top:
            return
        once, twice = (np.concatenate(m, axis=1) for m in zip(*grown))
        if prune:
            kept = np.concatenate(kept)
            first, parent = first[kept], parent[kept]
        if done.any():
            live = ~done[first // n]
            first, parent, once, twice = first[live], parent[live], once[:, live], twice[:, live]
        levels[-1] = first, parent
        del kept, grown  # the level's pass arrays go before the next level is grown
        first, parent = _children(first, n, width)
        if not len(first):
            return


def min_hamming_weights(lattices: list[ConstructionALattice], w_max: int,
                        budget: int = DEFAULT_SUPPORT_BUDGET) -> list[int | None]:
    """:meth:`ConstructionALattice.min_hamming_weight` of each lattice of a
    stack of one shape and modulus, searched together: each level of
    supports is grown for every code still in the stack at once
    (``_private_row_free_supports``), and the survivors of all the codes
    are rank-tested together, as stacks of at most RANK_STACK_BYTES
    (``_rank_stack``).  A code leaves the stack at its first deficient
    weight, and the weights come back in the lattices' order.  More than
    ``budget`` supports per code (of every size up to w_max, pruned or
    not) are refused before anything is built."""
    if w_max < 1:
        raise ValueError(f"w_max = {w_max} must be at least 1")
    if len({(lat.H.array.shape, lat.p) for lat in lattices}) > 1:
        raise ValueError("a support-search stack needs lattices of one shape and modulus")
    if not lattices:
        return []
    n, p = lattices[0].n, lattices[0].p
    w_top = min(w_max, n)
    total = sum(math.comb(n, w) for w in range(1, w_top + 1))
    if total > budget:
        raise BudgetExceededError(
            f"support enumeration refused: {total} supports exceed budget {budget}"
        )
    columns = np.concatenate([lat.H.array.T for lat in lattices])  # column j of code c at c n + j
    weights: list[int | None] = [None] * len(lattices)
    done = np.zeros(len(lattices), dtype=bool)
    per_stack = max(1, RANK_STACK_BYTES // max(1, 8 * columns.shape[1] * w_top))
    for w, supports in _private_row_free_supports(columns, n, w_top, done):
        supports = supports[~done[supports[:, 0] // n]]
        for lo in range(0, len(supports), per_stack):
            part = supports[lo:lo + per_stack]
            for c in (part[_rank_stack(columns[part], p) < w, 0] // n).tolist():
                weights[c], done[c] = w, True
        if done.all():
            break
    return weights


class ConstructionALattice:
    """Lattice of integer vectors x with H x^T = 0 mod p."""

    def __init__(self, H: GfMatrix, _stack: tuple[SetUpStack, int] | None = None):
        """``_stack`` is the set-up stack that holds H, and its place in it
        (see :func:`construction_a`); without it the lattice is a stack of
        one, set up on first use."""
        if H.p == 2:  # H's GfMatrix has already checked that p is prime
            raise ValueError("lattice constructions require an odd prime")
        self.H = H
        self.p = H.p
        self.n = H.cols
        if _stack is not None:
            self._stack = _stack

    @cached_property
    def _stack(self) -> tuple[SetUpStack, int]:
        """A stack of this lattice alone, unless one was handed over."""
        return SetUpStack([self.H]), 0

    @property
    def _reduced(self) -> tuple[np.ndarray, list[int]]:
        """rref([H | I]) mod p and its pivot columns; the right-hand block is
        T with T H = rref(H), whose rows past the rank annihilate H."""
        stack, i = self._stack
        return stack.reduced[i]

    @cached_property
    def _pivots(self) -> list[int]:
        """The pivot columns of H."""
        return [c for c in self._reduced[1] if c < self.n]

    @property
    def _basis(self) -> np.ndarray:
        """The Construction-A basis as columns (see :func:`_bases`)."""
        stack, i = self._stack
        return stack.bases[i]

    @property
    def _sorted(self) -> _SortedQR:
        """The search basis and its QR factors, built with the lattice's
        stack on the first search of any lattice in it."""
        stack, i = self._stack
        return stack.sorted[i]

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

        A dependency with all coefficients nonzero forces each column's rows
        to be covered by the others', so a support with a "private" row,
        touched by one of its columns only, has none; a dependency that
        zeroes a coefficient lives on a smaller support and is caught at a
        lower w, keeping the weight exact.  So only the private-row-free
        supports of each size, grown level by level in lex order and pruned
        per code by ``_private_row_free_supports``, are rank-tested, as
        stacks of at most RANK_STACK_BYTES (``_rank_stack``); the first
        deficient support is the first survivor whose rank is below w.
        More than ``budget`` supports in all (of every size up to w_max,
        pruned or not) are refused before anything is built.  The search
        is :func:`min_hamming_weights` of a stack of one.
        """
        return min_hamming_weights([self], w_max, budget)[0]

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


class SetUpStack:
    """Parity checks of one shape and modulus set up together: their
    reduced forms rref([H | I]), then their Construction-A bases, then
    their sorted QR factors are each computed for the whole stack, as
    (B, ...) arrays, when the first of its lattices needs its own."""

    def __init__(self, checks: list[GfMatrix]):
        self.checks, self.p = checks, checks[0].p

    @cached_property
    def reduced(self) -> list[tuple[np.ndarray, list[int]]]:
        rows, n = self.checks[0].array.shape
        stack = np.zeros((len(self.checks), rows, n + rows), dtype=np.int64)
        stack[:, :, :n] = [H.array for H in self.checks]
        stack[:, :, n:] = np.eye(rows, dtype=np.int64)
        return _rref_stack(stack, self.p)

    @cached_property
    def bases(self) -> np.ndarray:
        return _bases(np.stack([red for red, _ in self.reduced]), [pv for _, pv in self.reduced], self.p)

    @cached_property
    def sorted(self) -> list[_SortedQR]:
        return _sorted_qr(self.bases)


def construction_a(checks: list[GfMatrix]) -> list[ConstructionALattice]:
    """The lattices of parity checks of one shape and modulus, set up
    together in one :class:`SetUpStack`."""
    stack = SetUpStack(checks)
    return [ConstructionALattice(H, _stack=(stack, i)) for i, H in enumerate(checks)]
