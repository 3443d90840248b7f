"""Biregular bipartite Tanner graphs and vertex-expansion checks.

Graphs come from the permutation model: left sockets are wired to right
sockets through one seeded permutation, so the edge multiset is a pure
function of (n_left, f, delta, seed).  Expansion ("D-goodness") is
verified either exhaustively on small graphs or by a randomized greedy
falsifier that hunts for small subsets with compressed neighborhoods.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from . import rng


class BudgetExceededError(RuntimeError):
    """An enumeration was refused because it exceeds the configured budget."""


class EdgeList:
    """Sorted (left, right, multiplicity) triples held in one read-only
    int32 array rather than one tuple per edge: a 200-node criterion-5
    graph takes about 12 KB instead of 68 KB.  It iterates, and compares
    equal, like the tuple of triples it holds."""

    __slots__ = ("array",)

    def __init__(self, triples) -> None:
        self.array = np.array(list(triples), dtype=np.int32).reshape(-1, 3)
        self.array.flags.writeable = False

    def __iter__(self):
        return map(tuple, self.array.tolist())

    def __len__(self) -> int:
        return len(self.array)

    def __eq__(self, other) -> bool:
        if isinstance(other, (EdgeList, tuple)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"EdgeList({tuple(self)!r})"


@dataclass(frozen=True)
class TannerGraph:
    """Bipartite graph with left (variable) and right (check) nodes.

    Parallel edges are merged at build time: ``edges`` lists each distinct
    (left, right) pair once with its multiplicity in the edge multiset, so
    each pair counts as a single edge for neighborhoods.
    """

    n_left: int
    n_right: int
    delta: int
    seed: int
    edges: EdgeList  # (left, right, multiplicity), sorted; any iterable of triples is converted

    def __post_init__(self) -> None:
        if not isinstance(self.edges, EdgeList):
            object.__setattr__(self, "edges", EdgeList(self.edges))

    @property
    def f(self) -> Fraction:
        return Fraction(self.n_right, self.n_left)

    def degree_histogram(self, side: str, count_multiplicity: bool = True) -> dict[int, int]:
        idx = 0 if side == "left" else 1
        n = self.n_left if side == "left" else self.n_right
        degs = [0] * n
        for e in self.edges:
            degs[e[idx]] += e[2] if count_multiplicity else 1
        hist: dict[int, int] = {}
        for d in degs:
            hist[d] = hist.get(d, 0) + 1
        return hist

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


def build_graph(n_left: int, f: Fraction, delta: int, seed: int) -> TannerGraph:
    """Permutation-model graph: check degree delta, variable degree f*delta.

    Both n_right = f*n_left and the variable degree f*delta must be
    integers for the graph to be biregular.
    """
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
    perm = rng.generator(seed, "tanner-perm", n_left, n_right, delta).permutation(sockets)
    pairs = [(t // dv, int(perm[t]) // delta) for t in range(sockets)]
    return TannerGraph.from_edges(n_left, n_right, pairs, delta, seed)


def biadjacency(graph: TannerGraph) -> np.ndarray:
    """Boolean n_left x n_right matrix with True where an edge joins the pair."""
    B = np.zeros((graph.n_left, graph.n_right), dtype=bool)
    B[graph.edges.array[:, 0], graph.edges.array[:, 1]] = True
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
    return {e[1 - own] for e in graph.edges if e[own] in nodes}


@dataclass(frozen=True)
class GoodnessVerdict:
    D: float
    direction: str  # left_to_right | right_to_left | both
    mode: str  # exhaustive | randomized
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


def _check_exhaustive(graph: TannerGraph, D: float, direction: str):
    B, max_size, factor, side = _direction_params(graph, D, direction)
    masks = [int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little") for row in B]
    checked = 0
    min_ratio = math.inf
    for size in range(1, max_size + 1):
        for subset in combinations(range(len(masks)), size):
            acc = 0
            for v in subset:
                acc |= masks[v]
            checked += 1
            covered = acc.bit_count()
            min_ratio = min(min_ratio, covered / (factor * size))
            if covered < factor * size:
                return subset, side, checked, min_ratio
    return None, None, checked, min_ratio


# Greedy chains grown side by side in one block; 64 keeps a block's score
# matrix small (64 x nodes floats) while one product serves many chains.
CHAINS_PER_BLOCK = 64


def _check_randomized(graph: TannerGraph, D: float, direction: str, budget: int, seed: int):
    """Greedy falsifier: each chain starts at a random vertex and grows S by
    the vertex with the smallest marginal growth |N(S + v)| - |N(S)|, ties
    going to the vertex first in the chain's random order; every prefix is
    a candidate counterexample.  One matrix product scores every candidate
    of every chain in a block."""
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


EXHAUSTIVE_NODE_LIMIT = 24


def check_d_good(
    graph: TannerGraph,
    D: float,
    direction: str = "both",
    mode: str = "randomized",
    budget: int = 100_000,
    seed: int = 0,
) -> GoodnessVerdict:
    """Test the expansion condition |N(S)| >= f*D*|S| for small subsets.

    Exhaustive mode enumerates every subset up to the size bound and is
    refused above EXHAUSTIVE_NODE_LIMIT nodes; randomized mode spends at
    most ``budget`` candidate subsets, split evenly over the directions, on
    a greedy falsifier and reports either a verified violation witness or
    "no violation found".  A budget that leaves a direction no subset is
    refused, so a clean verdict always means something was checked.
    """
    if D < 1:
        raise ValueError("D must be >= 1")
    directions = ["left_to_right", "right_to_left"] if direction == "both" else [direction]
    share = budget // len(directions)
    if mode == "randomized" and share < 1:
        raise ValueError(f"budget {budget} leaves fewer than one subset for each of "
                         f"{len(directions)} direction(s)")
    total_checked = 0
    min_ratio = math.inf
    for d in directions:
        side_n = graph.n_left if d == "left_to_right" else graph.n_right
        if mode == "exhaustive":
            if side_n > EXHAUSTIVE_NODE_LIMIT:
                raise BudgetExceededError(
                    f"exhaustive D-goodness refused for {side_n} > {EXHAUSTIVE_NODE_LIMIT} nodes"
                )
            witness, side, checked, ratio = _check_exhaustive(graph, D, d)
        elif mode == "randomized":
            witness, side, checked, ratio = _check_randomized(graph, D, d, share, seed)
        else:
            raise ValueError(f"unknown mode {mode!r}")
        total_checked += checked
        min_ratio = min(min_ratio, ratio)
        if witness is not None:
            _assert_violation(graph, witness, side, D)
            return GoodnessVerdict(D, direction, mode, tuple(witness), side, total_checked, min_ratio)
    return GoodnessVerdict(D, direction, mode, None, None, total_checked, min_ratio)


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


def binomial_bounds(n: int, theta: float) -> tuple[float, float]:
    """Two-sided entropy bounds for C(n, theta*n); theta*n must be integral."""
    k = theta * n
    if abs(k - round(k)) > 1e-9:
        raise ValueError(f"theta*n = {k} is not an integer")
    if not 0.0 < theta < 1.0:
        raise ValueError("bounds require 0 < theta < 1")
    mid = 2.0 ** (n * binary_entropy(theta))
    lower = mid / math.sqrt(8.0 * n * theta * (1.0 - theta))
    upper = mid / math.sqrt(2.0 * math.pi * n * theta * (1.0 - theta))
    return lower, upper


def _expansion_correction(D: float) -> float:
    """1 - D h(1/D) / ((D+1) h(1/(D+1))); equals 1 at D = 1 since h(1) = 0."""
    if D < 1:
        raise ValueError("D must be >= 1")
    num = D * binary_entropy(1.0 / D)
    den = (D + 1.0) * binary_entropy(1.0 / (D + 1.0))
    return 1.0 - num / den


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
    lines += [f"{l} {r} {m}" for l, r, m in graph.edges]
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
    if len(header) != 4 or min(header[:3]) < 0:
        raise ValueError(f"line {number}: header must be 'n_left n_right delta seed' "
                         f"with non-negative sizes, got {header}")
    n_left, n_right, delta, seed = header
    for number, e in edges:
        if len(e) != 3 or not (0 <= e[0] < n_left and 0 <= e[1] < n_right and e[2] >= 1):
            raise ValueError(f"line {number}: edge must be 'left right multiplicity' within "
                             f"{n_left} x {n_right} with multiplicity >= 1, got {e}")
    return TannerGraph(n_left, n_right, delta, seed, sorted(tuple(e) for _, e in edges))
