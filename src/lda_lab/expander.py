"""Biregular bipartite Tanner graphs and vertex-expansion checks.

Graphs come from the permutation model: left sockets are wired to right
sockets through one seeded permutation, so the edge multiset is a pure
function of (n_left, f, delta, seed).  A stack of graphs of one shape is
built by sorting its sockets' (graph, left, right) edge keys once with
``np.unique``; the socket-by-socket wiring of one graph is its oracle in
``tests/oracles.py``.  Expansion ("D-goodness") is checked by a randomized
greedy falsifier that hunts for small subsets with compressed
neighborhoods.  It draws its chains in blocks of CHAINS_PER_BLOCK and
grows consecutive whole blocks side by side, as many as fit in
GROUP_BYTES.  Neighbourhoods and each chain's uncovered nodes are packed
as bits of uint64 words, so a chain scores every candidate by exact
integer counts, an AND and a popcount per word.  Two test oracles in
``tests/oracles.py`` check it in turn: the exhaustive subset search, and
the same falsifier run one block after another with a float64 matrix
product, which must give the same verdict bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import rng


class BudgetExceededError(RuntimeError):
    """An enumeration was refused because it exceeds the configured budget."""


@dataclass(frozen=True, eq=False)
class TannerGraph:
    """Bipartite graph with left (variable) and right (check) nodes.

    Parallel edges are merged at build time: ``edges`` lists each distinct
    (left, right) pair once with its multiplicity in the edge multiset, so
    each pair counts as a single edge for neighborhoods.  It is one
    read-only (E, 3) int32 array rather than one tuple per edge: a 200-node
    criterion-5 graph takes about 12 KB instead of 68 KB.
    """

    n_left: int
    n_right: int
    delta: int
    seed: int
    edges: np.ndarray  # (left, right, multiplicity) rows, sorted; any iterable of triples is converted

    def __post_init__(self) -> None:
        edges = np.array(self.edges, dtype=np.int32).reshape(-1, 3)
        edges.flags.writeable = False
        object.__setattr__(self, "edges", edges)

    def _key(self) -> tuple:
        return self.n_left, self.n_right, self.delta, self.seed, self.edges.tobytes()

    def __eq__(self, other) -> bool:
        if isinstance(other, TannerGraph):
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def f(self) -> Fraction:
        return Fraction(self.n_right, self.n_left)

    @classmethod
    def from_edges(
        cls, n_left: int, n_right: int, pairs: list[tuple[int, int]], delta: int = 0, seed: int = 0
    ) -> "TannerGraph":
        """Ad-hoc graph from explicit edges (tests, planted counterexamples)."""
        counts: dict[tuple[int, int], int] = {}
        for l, r in pairs:
            if not (0 <= l < n_left and 0 <= r < n_right):
                raise ValueError(f"edge ({l},{r}) out of range")
            counts[(l, r)] = counts.get((l, r), 0) + 1
        edges = tuple(sorted((l, r, m) for (l, r), m in counts.items()))
        return cls(n_left, n_right, delta, seed, edges)


# The most sockets one permutation-model graph, and one pass of a stacked
# build, may wire.  The build holds 64 bytes a socket at its peak by
# tracemalloc (the drawn int64 permutations, the int64 edge keys, and
# np.unique's sorted copy, flags and counts), so 2^21 of them take about
# 134 MB.
MAX_SOCKETS = 2**21


def build_graph(n_left: int, f: Fraction, delta: int, seed: int) -> TannerGraph:
    """The permutation-model graph of one seed: :func:`build_graphs` of a
    stack of one."""
    return build_graphs(n_left, f, delta, [seed])[0]


def build_graphs(n_left: int, f: Fraction, delta: int, seeds: list[int]) -> list[TannerGraph]:
    """Permutation-model graphs, one per seed: check degree delta, variable
    degree f*delta.

    Both n_right = f*n_left and the variable degree f*delta must be
    integers for a graph to be biregular, and a graph of more than
    MAX_SOCKETS sockets is refused before any is drawn.  Each seed draws
    its own permutation from its own stream, and the graphs are built in
    passes of at most MAX_SOCKETS sockets: a pass's edges are the distinct
    keys (graph, left, right) of its sockets, counted by one ``np.unique``
    in O(sockets) memory.  ``build_graph_by_sockets`` in
    ``tests/oracles.py`` wires one graph one socket at a time.
    """
    if n_left < 1:
        raise ValueError(f"n_left = {n_left} must be at least 1")
    f = Fraction(f)
    n_right = f * n_left
    dv = f * delta
    if n_right.denominator != 1:
        raise ValueError(f"f*n_left = {n_right} is not an integer")
    if dv.denominator != 1 or dv <= 0:
        raise ValueError(f"variable degree f*delta = {dv} is not a positive integer")
    n_right = int(n_right)
    dv = int(dv)
    sockets = n_right * delta
    if sockets > MAX_SOCKETS:
        raise BudgetExceededError(f"graph build refused: n_right * delta = {sockets} sockets, "
                                  f"over the allowed {MAX_SOCKETS}")
    # Left socket t of a graph is wired to right socket perm[t]; each
    # (graph, left, right) triple is one key, and the sorted distinct keys
    # are each graph's sorted edges, the graphs in seed order.
    cells = n_left * n_right
    left = np.arange(sockets) // dv * n_right
    per_pass = MAX_SOCKETS // sockets
    graphs = []
    for lo in range(0, len(seeds), per_pass):
        part = seeds[lo:lo + per_pass]
        keys = np.empty((len(part), sockets), dtype=np.int64)
        for row, seed in zip(keys, part):
            row[:] = rng.generator(seed, "tanner-perm", n_left, n_right, delta).permutation(sockets)
        keys //= delta
        keys += left
        keys += cells * np.arange(len(part))[:, None]
        keys, multiplicity = np.unique(keys, return_counts=True)
        graph, cell = np.divmod(keys, cells)
        edges = np.stack([*np.divmod(cell, n_right), multiplicity], axis=1)
        ends = graph.searchsorted(np.arange(len(part) + 1)).tolist()
        graphs += [TannerGraph(n_left, n_right, delta, seed, edges[a:b])
                   for seed, a, b in zip(part, ends, ends[1:])]
    return graphs


def _column_masks(H: np.ndarray) -> np.ndarray:
    """Each column's row support as bits of uint64 words: shape (words, n),
    one word per 64 rows (row r is bit r % 64 of word r // 64)."""
    rows, n = H.shape
    packed = np.zeros((n, 8 * -(-rows // 64)), dtype=np.uint8)
    packed[:, : -(-rows // 8)] = np.packbits(H != 0, axis=0, bitorder="little").T
    return packed.view(np.uint64).T


def biadjacency(graph: TannerGraph) -> np.ndarray:
    """Boolean n_left x n_right matrix with True where an edge joins the pair."""
    B = np.zeros((graph.n_left, graph.n_right), dtype=bool)
    B[graph.edges[:, 0], graph.edges[:, 1]] = True
    return B


def neighborhood(graph: TannerGraph, nodes: set[int] | frozenset[int], side: str) -> set[int]:
    """Exact neighborhood of a subset of left or right nodes, read straight
    from the edge list so that it stays independent of ``biadjacency``."""
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    own = 0 if side == "left" else 1
    n = graph.n_left if side == "left" else graph.n_right
    for v in nodes:
        if not (0 <= v < n):
            raise ValueError(f"node {v} out of range for side {side!r}")
    return {e[1 - own] for e in graph.edges.tolist() if e[own] in nodes}


@dataclass(frozen=True)
class GoodnessVerdict:
    D: float
    direction: str  # left_to_right | right_to_left | both
    violated_set: tuple[int, ...] | None
    violated_side: str | None
    subsets_checked: int
    # Smallest |N(S)| / (required factor * |S|) over the subsets checked;
    # below 1 means a violation, inf when no subset was checked.
    min_expansion_ratio: float

    @property
    def found_violation(self) -> bool:
        return self.violated_set is not None


def _direction_params(graph: TannerGraph, D: float, direction: str):
    """(biadjacency with one row per checked node, size bound, required
    expansion factor, side) for one direction."""
    f = float(graph.f)
    if direction == "left_to_right":
        return biadjacency(graph), int(graph.n_left / (D + 1)), f * D, "left"
    if direction == "right_to_left":
        return biadjacency(graph).T, int(graph.n_right / (D + 1)), D / f, "right"
    raise ValueError(f"unknown direction {direction!r}")


# Greedy chains drawn together in one block: each block's random orders,
# then its start vertices.  The blocks fix which subsets are tried, so
# their size stays whatever the number grown side by side.
CHAINS_PER_BLOCK = 64
# The most bytes a direction of ``check_d_good`` may hold in its dense
# n_left x n_right matrices, counted at nine bytes an entry: 9 * n_left *
# n_right.  The boolean biadjacency, the boolean copy that is packed and
# the packed words peak at about 2.3 bytes an entry; the rest is headroom.
MAX_CHECK_BYTES = 2**30
# The most bytes of chain state one group of blocks in ``_check_randomized``
# may hold.  Checking a 200 x 50 criterion-5 graph then peaks at about
# 640 KiB of traced allocations, with 2 blocks a group left to right and
# 7 right to left.
GROUP_BYTES = 2**19


def refuse_oversized_check(n_left: int, n_right: int) -> None:
    """Refuse a D-goodness check whose dense matrices would pass
    MAX_CHECK_BYTES before any matrix is allocated."""
    need = 9 * n_left * n_right
    if need > MAX_CHECK_BYTES:
        raise BudgetExceededError(
            f"expansion check refused: a dense {n_left} x {n_right} biadjacency, counted at "
            f"9 bytes an entry, would need {need} bytes, over the allowed {MAX_CHECK_BYTES} bytes")


def _block_sizes(budget: int, steps: int) -> list[int]:
    """Chains in each block, in draw order: full blocks of CHAINS_PER_BLOCK
    while the budget lasts, then one partial block of what is left."""
    sizes = []
    while budget >= steps >= 1:
        sizes.append(min(CHAINS_PER_BLOCK, budget // steps))
        budget -= sizes[-1] * steps
    return sizes


def _check_randomized(graph: TannerGraph, D: float, direction: str, budget: int, seed: int):
    """Greedy falsifier: each chain starts at a random vertex and grows S by
    the vertex with the smallest marginal growth |N(S + v)| - |N(S)|, ties
    going to the vertex first in the chain's random order; every prefix is
    a candidate counterexample.

    Chains are drawn in blocks of CHAINS_PER_BLOCK, and consecutive whole
    blocks, as many as fit in GROUP_BYTES, grow side by side.  Each
    candidate's neighbours and each chain's uncovered covered-side nodes
    are bits of uint64 words, one word per 64 nodes, so a candidate's
    uncovered neighbours are an exact integer count: the popcounts of the
    words of their AND.  A chain holds about 17 bytes a candidate (its
    random order, its gain and a count in the smallest unsigned type that
    holds every degree) and 8 a step.  The verdict is the one the blocks
    would give run one after another: the first block in draw order with
    a violation decides it, at its first violating step and on its first
    bad chain; the blocks after it do not count."""
    B, max_size, factor, side = _direction_params(graph, D, direction)
    n = B.shape[0]
    if max_size < 1 or n == 0:
        return None, None, 0, math.inf  # vacuously good: no subsets to check
    # Candidate j's neighbours are bits of column j of ``nbrs``, one
    # contiguous row a word for scoring, and of row j of ``keep``,
    # complemented, for clearing a pick's neighbours.  Padding bits past
    # the last node are 0 in ``nbrs``, so they never count.
    nbrs = _column_masks(B.T)
    keep = np.ascontiguousarray(~nbrs.T)
    words = len(nbrs)
    degree = B.sum(axis=1)
    # The smallest unsigned type that holds every candidate's count.
    count_type = np.min_scalar_type(int(degree.max()))
    degree = degree.astype(np.float64)
    gen = rng.generator(seed, "dgood", direction, D)
    steps = min(max_size, budget)
    # Bytes a chain holds: order and gain (float64) and the count per
    # candidate, with one byte more for a word's popcounts past the first
    # word; the uncovered words and a pick's gathered words; and its pick
    # history.  The gain doubles as each word's AND, written before the
    # gain itself.
    fit = GROUP_BYTES // ((16 + count_type.itemsize + (words > 1)) * n + 16 * words + 8 * steps)
    groups = [[]]  # consecutive whole blocks, as many as fit, at least one
    for chains in _block_sizes(budget, steps):
        if groups[-1] and sum(groups[-1]) + chains > fit:
            groups.append([])
        groups[-1].append(chains)
    width = max(map(sum, groups))
    lanes = np.arange(width)
    order = np.empty((width, n))
    gain = np.empty((width, n))
    bits = gain.view(np.uint64)
    count = np.zeros((width, n), dtype=count_type)  # stays 0 with no covered-side node
    uncovered = np.empty((width, words), dtype=np.uint64)
    history = np.empty((steps, width), dtype=np.int64)
    checked = 0
    min_ratio = math.inf
    for group in groups:
        starts = np.cumsum([0] + group)
        chains = int(starts[-1])
        pick = np.empty(chains, dtype=np.int64)
        for s, e in zip(starts[:-1], starts[1:]):
            gen.random(out=order[s:e])
            pick[s:e] = gen.integers(0, n, size=e - s)
        order[:chains] *= 0.5  # below the unit step between gains
        block_min = np.full(len(group), math.inf)
        live = len(group)  # the blocks still growing: a prefix of the group
        witness = None
        for size in range(1, steps + 1):
            rows = lanes[:chains]
            history[size - 1, :chains] = pick
            order[rows, pick] = np.inf
            if size == 1:
                reached = degree[pick]
                uncovered[:chains] = keep[pick]
            else:
                reached += count[rows, pick]
                uncovered[:chains] &= keep[pick]
            need = factor * size
            np.minimum(block_min[:live], np.minimum.reduceat(reached, starts[:live]) / need,
                       out=block_min[:live])
            bad = np.flatnonzero(reached < need)
            if bad.size:
                # Blocks from the first bad one on stop; the earlier ones go on.
                live = int(np.searchsorted(starts, bad[0], side="right")) - 1
                witness = tuple(np.sort(history[:size, bad[0]]).tolist())
                found_at = checked + int(starts[live]) * steps + group[live] * size
                chains = int(starts[live])
                reached = reached[:chains]
                if not chains:
                    break
            if size < steps:
                for w in range(words):
                    np.bitwise_and(uncovered[:chains, w, None], nbrs[w], out=bits[:chains])
                    if w == 0:
                        np.bitwise_count(bits[:chains], out=count[:chains])
                    else:
                        count[:chains] += np.bitwise_count(bits[:chains])
                gain[:chains] = count[:chains]  # a cast copy, then a float64 add, beats a mixed add
                gain[:chains] += order[:chains]
                pick = gain[:chains].argmin(axis=1)
        if witness is not None:
            return witness, side, found_at, min(min_ratio, float(block_min[:live + 1].min()))
        checked += chains * steps
        min_ratio = min(min_ratio, float(block_min.min()))
    return None, None, checked, min_ratio


def check_d_good(
    graph: TannerGraph,
    D: float,
    direction: str = "both",
    budget: int = 100_000,
    seed: int = 0,
) -> GoodnessVerdict:
    """Test the expansion condition |N(S)| >= f*D*|S| for small subsets.

    Spends at most ``budget`` candidate subsets, split evenly over the
    directions, on a greedy falsifier and reports either a verified
    violation witness or "no violation found".  A budget that leaves a
    direction no subset is refused.  A clean verdict with no subset
    checked means that n/(D+1) < 1 on every side checked: no subset is
    small enough to need expanding.  A D that is not a finite number >= 1,
    a graph with no left or no right node, and a graph whose dense matrices
    would pass MAX_CHECK_BYTES, are refused before any matrix is built.
    The falsifier counts neighbours as integers on bit-packed
    neighbourhoods, so its verdict is exact at any size; a chain holds
    about 17 bytes a candidate.
    """
    _check_D(D)
    if not (graph.n_left and graph.n_right):
        raise ValueError(f"graph has no {'right' if graph.n_left else 'left'} node: expansion is "
                         f"undefined (n_left = {graph.n_left}, n_right = {graph.n_right})")
    refuse_oversized_check(graph.n_left, graph.n_right)
    directions = ["left_to_right", "right_to_left"] if direction == "both" else [direction]
    share = budget // len(directions)
    if share < 1:
        raise ValueError(f"budget {budget} leaves fewer than one subset for each of "
                         f"{len(directions)} direction(s)")
    total_checked = 0
    min_ratio = math.inf
    for d in directions:
        witness, side, checked, ratio = _check_randomized(graph, D, d, share, seed)
        total_checked += checked
        min_ratio = min(min_ratio, ratio)
        if witness is not None:
            _assert_violation(graph, witness, side, D)
            return GoodnessVerdict(D, direction, tuple(witness), side, total_checked, min_ratio)
    return GoodnessVerdict(D, direction, None, None, total_checked, min_ratio)


def _check_D(D: float) -> None:
    if not (math.isfinite(D) and D >= 1):
        raise ValueError(f"D = {D} must be a finite number >= 1")


def _assert_violation(graph: TannerGraph, subset: tuple[int, ...], side: str, D: float) -> None:
    """Re-verify a reported witness with the plain neighborhood routine."""
    nb = neighborhood(graph, set(subset), side)
    f = float(graph.f)
    if side == "left":
        ok_size = len(subset) <= graph.n_left / (D + 1)
        violated = len(nb) < f * D * len(subset)
    else:
        ok_size = len(subset) <= graph.n_right / (D + 1)
        violated = len(nb) < D * len(subset) / f
    if not (ok_size and violated):
        raise AssertionError("falsifier produced a spurious witness")


def binary_entropy(theta: float) -> float:
    """h(theta) in bits; h(0) = h(1) = 0 by continuity."""
    if theta in (0.0, 1.0):
        return 0.0
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta}")
    return -theta * math.log2(theta) - (1.0 - theta) * math.log2(1.0 - theta)


def _expansion_correction(D: float) -> float:
    """1 - D h(1/D) / ((D+1) h(1/(D+1))); equals 1 at D = 1 since h(1) = 0.
    It falls toward 0 as D grows; a D at which it rounds to 0, or is not a
    number, is refused, since the thresholds divide by it."""
    _check_D(D)
    num = D * binary_entropy(1.0 / D)
    den = (D + 1.0) * binary_entropy(1.0 / (D + 1.0))
    correction = 1.0 - num / den
    if not correction > 0.0:
        raise ValueError(f"D = {D} is too large: its expansion correction is {correction}")
    return correction


def delta_threshold(D: float, f: float) -> float:
    """Degree above which a random biregular family is D-good left-to-right
    with probability tending to 1."""
    if f <= 0:
        raise ValueError("f must be positive")
    first = (1.0 + 1.0 / f) / _expansion_correction(D)
    return max(first, D * D + 1.0 / f)


def delta_threshold_two_sided(D: float, f: float) -> float:
    """Two-sided variant: adds the D^2/f + 1 term for right-to-left."""
    return max(delta_threshold(D, f), D * D / f + 1.0)


def lda_delta_p_threshold(D: float, R_f: float) -> float:
    """Check-degree threshold for D-good LDA Tanner graphs (f = 1 - R_f)."""
    if not 0.0 < R_f < 1.0:
        raise ValueError("R_f must lie in (0, 1)")
    first = (2.0 - R_f) / (1.0 - R_f) / _expansion_correction(D)
    return max(first, D * D / (1.0 - R_f) + 1.0)


def export_text(graph: TannerGraph) -> str:
    """Line format: header 'n_left n_right delta seed', then sorted
    'left right multiplicity' triples (bit-exact regression format)."""
    lines = [f"{graph.n_left} {graph.n_right} {graph.delta} {graph.seed}"]
    lines += [f"{l} {r} {m}" for l, r, m in graph.edges.tolist()]
    return "\n".join(lines) + "\n"


def import_text(text: str) -> TannerGraph:
    """Inverse of ``export_text``; malformed input raises ValueError naming its line."""
    rows = []
    for number, line in enumerate(text.splitlines(), 1):
        if line.strip():
            try:
                rows.append((number, [int(t) for t in line.split()]))
            except ValueError:
                raise ValueError(f"line {number}: non-integer token in {line!r}") from None
    if not rows:
        raise ValueError("line 1: empty graph text, expected header 'n_left n_right delta seed'")
    (number, header), edges = rows[0], rows[1:]
    if len(header) != 4 or not all(0 <= v < 2**31 for v in header[:3]):
        raise ValueError(f"line {number}: header must be 'n_left n_right delta seed' "
                         f"with non-negative sizes below 2^31, got {header}")
    n_left, n_right, delta, seed = header
    previous = [-1, -1]
    for number, e in edges:
        if len(e) != 3 or not (0 <= e[0] < n_left and 0 <= e[1] < n_right and 1 <= e[2] < 2**31):
            raise ValueError(f"line {number}: edge must be 'left right multiplicity' within "
                             f"{n_left} x {n_right} with multiplicity >= 1 and below 2^31, got {e}")
        if e[:2] <= previous:  # a repeat breaks "each pair once"; disorder moves labels
            raise ValueError(f"line {number}: edge {e[:2]} repeats or is out of sorted order")
        previous = e[:2]
    return TannerGraph(n_left, n_right, delta, seed, [e for _, e in edges])
