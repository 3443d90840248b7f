"""Independent oracles that only the tests run, one per fast path they check.

- ``_check_node_messages``: the direct O(d p^2) Z_p convolution of one
  check, against the DFT check update ``codec._check_messages``.
- ``voronoi_codebook_bruteforce``: the Voronoi codebook through
  ``gfmatrix.solve`` and the enumeration CVP oracle, against the encoder.
- ``check_d_good_exhaustive``: every subset up to the size bound, against
  the greedy falsifier ``expander.check_d_good``.
- ``check_randomized_by_block``: the greedy falsifier run one 64-chain
  block after another and scored by a float64 matrix product, against
  ``expander._check_randomized``, which grows groups of blocks side by
  side and scores by popcounts of bit-packed neighbourhoods.
- ``degree_histogram``: socket degrees read off a graph's edge list.
- ``build_graph_by_sockets``: the permutation-model graph wired one socket
  at a time through ``TannerGraph.from_edges``, against the one-sort build
  ``expander.build_graph``.
- ``rref_alone``: one matrix row-reduced alone, swapping rows, against
  the stacked reduction ``gfmatrix._rref_stack``, stacks of one included.
- ``sorted_qr_alone``: one basis factored alone in a modified Gram-Schmidt
  pass, against the stacked sorted QR ``lattice._sorted_qr``, bit for bit.
- ``sorted_columns``: the sorted-QR column order by a plain residual
  downdate, against the one-pass factorization ``lattice._sorted_qr``.
- ``construction_a_basis``: one lattice's basis read off its reduced form
  by index lists, against the stacked scatter ``lattice._bases``.

Beside them, ``edited_texts`` draws the damaged inputs of the pair-file
and graph-text fuzz tests.

Import as ``from oracles import ...``: pytest puts this directory on the
path of the test modules beside it.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np
from hypothesis import event
from hypothesis import strategies as st

from lda_lab import rng
from lda_lab.codec import NestedLatticePair
from lda_lab.expander import (
    CHAINS_PER_BLOCK,
    BudgetExceededError,
    GoodnessVerdict,
    TannerGraph,
    _assert_violation,
    _direction_params,
)
from lda_lab.gfmatrix import solve
from lda_lab.lattice import _SortedQR

# ---------------------------------------------------------------------------
# Sum-product check node


def _zp_convolve(a: np.ndarray, b: np.ndarray, idx_sub: np.ndarray) -> np.ndarray:
    """(a * b)[t] = sum_s a[s] b[(t - s) mod p]."""
    return b[idx_sub] @ a


def _check_node_messages(
    coeffs: np.ndarray, incoming: list[np.ndarray], p: int, idx_sub: np.ndarray
) -> list[np.ndarray]:
    """Outgoing sum-product messages of one check sum_j h_j x_j = 0 mod p.

    Incoming beliefs are mapped to the y_j = h_j x_j domain, convolved with
    forward/backward partial products (O(d p^2) per check), evaluated at
    -y_j, and mapped back through x_j = y_j / h_j.  The direct oracle of
    ``codec._check_messages``, which the decoder runs.
    """
    d = len(incoming)
    scaled = []
    for k in range(d):
        inv = pow(int(coeffs[k]), p - 2, p)
        perm = (np.arange(p) * inv) % p  # q[b] = m[b / h] on index level
        scaled.append(incoming[k][perm])
    unit = np.zeros(p)
    unit[0] = 1.0
    fwd = [unit]
    for k in range(d):
        fwd.append(_zp_convolve(fwd[k], scaled[k], idx_sub))
    bwd = [unit] * (d + 1)
    for k in range(d - 1, -1, -1):
        bwd[k] = _zp_convolve(bwd[k + 1], scaled[k], idx_sub)
    out = []
    for k in range(d):
        conv = _zp_convolve(fwd[k], bwd[k + 1], idx_sub)
        back = (np.arange(p) * int(coeffs[k])) % p
        msg = conv[(-back) % p]
        s = msg.sum()
        out.append(msg / s if s > 0 else np.full(p, 1.0 / p))
    return out


# ---------------------------------------------------------------------------
# Voronoi codebook


def voronoi_codebook_bruteforce(pair: NestedLatticePair, budget: int = 10_000_000) -> set[tuple[int, ...]]:
    """The Voronoi codebook Lambda_f ∩ V(Lambda), one minimal-norm coset
    representative per message, computed through ``gfmatrix.solve`` and the
    enumeration CVP oracle rather than the encoder's transform and search."""
    book: set[tuple[int, ...]] = set()
    for m_index in range(pair.codebook_size):
        message = _index_to_message(m_index, pair.p, pair.ell)
        target = np.concatenate([message, np.zeros(pair.stack.r, dtype=np.int64)])
        x = solve(pair.stack.full, target)
        rep = x - pair.shaping.closest_point_bruteforce(x.astype(float), budget=budget)
        book.add(tuple(int(v) for v in rep))
    return book


def _index_to_message(index: int, p: int, ell: int) -> np.ndarray:
    digits = np.zeros(ell, dtype=np.int64)
    for k in range(ell):
        digits[k] = index % p
        index //= p
    return digits


def all_messages(pair: NestedLatticePair):
    for m_index in range(pair.codebook_size):
        yield _index_to_message(m_index, pair.p, pair.ell)


# ---------------------------------------------------------------------------
# Expansion


EXHAUSTIVE_NODE_LIMIT = 24


def check_d_good_exhaustive(graph: TannerGraph, D: float, direction: str) -> GoodnessVerdict:
    """``expander.check_d_good`` by enumerating every subset up to the size
    bound, in each direction in turn; refused above EXHAUSTIVE_NODE_LIMIT
    nodes on a side."""
    directions = ["left_to_right", "right_to_left"] if direction == "both" else [direction]
    total_checked = 0
    min_ratio = math.inf
    for d in directions:
        B, max_size, factor, side = _direction_params(graph, D, d)
        if len(B) > EXHAUSTIVE_NODE_LIMIT:
            raise BudgetExceededError(
                f"exhaustive D-goodness refused for {len(B)} > {EXHAUSTIVE_NODE_LIMIT} nodes")
        masks = [int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little") for row in B]
        for size in range(1, max_size + 1):
            for subset in combinations(range(len(masks)), size):
                acc = 0
                for v in subset:
                    acc |= masks[v]
                total_checked += 1
                covered = acc.bit_count()
                min_ratio = min(min_ratio, covered / (factor * size))
                if covered < factor * size:
                    _assert_violation(graph, subset, side, D)
                    return GoodnessVerdict(D, direction, subset, side, total_checked, min_ratio)
    return GoodnessVerdict(D, direction, None, None, total_checked, min_ratio)


def check_randomized_by_block(graph: TannerGraph, D: float, direction: str, budget: int, seed: int):
    """``expander._check_randomized`` one block at a time: each chain starts
    at a random vertex and grows S by the vertex with the smallest marginal
    growth |N(S + v)| - |N(S)|, ties going to the vertex first in the
    chain's random order; every prefix is a candidate counterexample.  One
    float64 matrix product scores every candidate of every chain in a
    block, and the first violation ends the search."""
    B, max_size, factor, side = _direction_params(graph, D, direction)
    n = B.shape[0]
    if max_size < 1 or n == 0:
        return None, None, 0, math.inf  # vacuously good: no subsets to check
    counts = B.T.astype(np.float64)
    gen = rng.generator(seed, "dgood", direction, D)
    steps = min(max_size, budget)
    checked = 0
    min_ratio = math.inf
    while budget - checked >= steps:
        chains = min(CHAINS_PER_BLOCK, (budget - checked) // steps)
        rows = np.arange(chains)
        order = 0.5 * gen.random((chains, n))  # below the unit step between gains
        members = np.zeros((chains, n), dtype=bool)
        covered = np.zeros((chains, B.shape[1]), dtype=bool)
        pick = gen.integers(0, n, size=chains)
        for size in range(1, steps + 1):
            members[rows, pick] = True
            covered |= B[pick]
            checked += chains
            reached = covered.sum(axis=1)
            min_ratio = min(min_ratio, float(reached.min()) / (factor * size))
            bad = np.flatnonzero(reached < factor * size)
            if bad.size:
                witness = tuple(np.flatnonzero(members[bad[0]]).tolist())
                return witness, side, checked, min_ratio
            gain = (~covered) @ counts + order
            gain[members] = np.inf
            pick = gain.argmin(axis=1)
    return None, None, checked, min_ratio


def degree_histogram(graph: TannerGraph, side: str) -> dict[int, int]:
    """{socket degree: node count} on one side, counting each merged edge
    with its multiplicity."""
    idx = 0 if side == "left" else 1
    degs = [0] * (graph.n_left if side == "left" else graph.n_right)
    for e in graph.edges.tolist():
        degs[e[idx]] += e[2]
    hist: dict[int, int] = {}
    for d in degs:
        hist[d] = hist.get(d, 0) + 1
    return hist


def build_graph_by_sockets(n_left: int, f, delta: int, seed: int) -> TannerGraph:
    """The graph of ``expander.build_graph`` for valid arguments, wired one
    socket at a time: left socket t belongs to variable t // dv and right
    socket s to check s // delta, and parallel edges are counted in a
    dict."""
    n_right, dv = int(f * n_left), int(f * delta)
    sockets = n_right * delta
    perm = rng.generator(seed, "tanner-perm", n_left, n_right, delta).permutation(sockets)
    pairs = [(t // dv, int(perm[t]) // delta) for t in range(sockets)]
    return TannerGraph.from_edges(n_left, n_right, pairs, delta, seed)


# ---------------------------------------------------------------------------
# Row reduction


def rref_alone(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Row-reduce a copy of one matrix ``a`` mod p, swapping rows; returns
    (rref, pivot columns)."""
    m = a.copy()
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        m[r] = (m[r] * pow(int(m[r, c]), -1, p)) % p
        # Clear column c from every other row at once; rows with a zero
        # there are left as they were.
        factors = m[:, c].copy()
        factors[r] = 0
        m -= factors[:, None] * m[r]
        m %= p
        pivots.append(c)
        r += 1
    return m, pivots


# ---------------------------------------------------------------------------
# Sorted QR


def sorted_qr_alone(basis: np.ndarray) -> _SortedQR:
    """Sorted QR of one (n, n) basis in one modified Gram-Schmidt pass: each
    step takes the remaining column of least residual length, records its
    unit vector as a row of Q^T and its projections of every residual as a
    row of R, and sets the pick's residual to 0."""
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


def sorted_columns(basis: np.ndarray) -> np.ndarray:
    """The basis in sorted QR order (Wuebben et al., Electronics Letters
    2001): each step takes the remaining column of least residual length,
    recomputed from the residuals, and projects the pick out of them.  The
    order only: ``lattice._sorted_qr`` also records Q and R as it goes."""
    a = basis.astype(float)
    order: list[int] = []
    for _ in range(a.shape[1]):
        norms = (a * a).sum(axis=0)
        norms[order] = np.inf
        j = int(np.argmin(norms))
        order.append(j)
        q = a[:, j] / math.sqrt(norms[j])
        a -= np.outer(q, q @ a)
    return basis[:, order]


def construction_a_basis(reduced: np.ndarray, pivots: list[int], p: int) -> np.ndarray:
    """One lattice's Construction-A basis from rref([H | I]) and its pivot
    columns: e_f plus -rref(H)[:, f] as residues in (-p/2, p/2) for each
    free column f, then p e_c for each pivot column c of H."""
    n = reduced.shape[1] - reduced.shape[0]
    pivots = [c for c in pivots if c < n]
    free = [c for c in range(n) if c not in pivots]
    k = len(free)
    basis = np.zeros((n, n), dtype=np.int64)
    basis[free, np.arange(k)] = 1
    basis[pivots, :k] = (p // 2 - reduced[: len(pivots), free]) % p - p // 2
    basis[pivots, k + np.arange(len(pivots))] = p
    return basis


# ---------------------------------------------------------------------------
# Fuzz inputs


@st.composite
def edited_texts(draw, texts: list[str], extremes: list[int]) -> str:
    """One of ``texts`` with one to three random edits: a line or a token
    deleted, inserted or replaced, or a value set to one of ``extremes``."""
    lines = draw(st.sampled_from(texts)).splitlines()
    tokens = sorted({t for ln in lines for t in ln.split()})
    token = st.one_of(st.sampled_from(tokens), st.sampled_from(extremes).map(str),
                      st.integers(-20, 20).map(str), st.text(max_size=4))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        words = lines[i].split()
        j = draw(st.integers(0, len(words)))
        edit = draw(st.sampled_from(["delete line", "insert line", "replace line",
                                     "delete token", "insert token", "replace token", "extreme"]))
        event(edit)
        if edit == "delete line":
            del lines[i]
        elif edit == "insert line":
            lines.insert(i, " ".join(draw(st.lists(token, max_size=3))))
        elif edit == "replace line":
            lines[i] = draw(st.sampled_from(lines))
        elif edit == "insert token":
            words.insert(j, draw(token))
        elif j < len(words) and edit == "delete token":
            del words[j]
        elif j < len(words):
            # A key=value token keeps its key; "extreme" puts in an extreme integer.
            key = words[j].split("=")[0] + "=" if "=" in words[j] else ""
            value = str(draw(st.sampled_from(extremes))) if edit == "extreme" else draw(token)
            words[j] = key + value
        if edit.endswith("token") or edit == "extreme":
            lines[i] = " ".join(words)
        if not lines:
            break
    return "\n".join(lines) + "\n"
