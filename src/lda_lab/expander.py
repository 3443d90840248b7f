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

from . import rng


class BudgetExceededError(RuntimeError):
    """An enumeration was refused because it exceeds the configured budget."""


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
    edges: tuple[tuple[int, int, int], ...]  # (left, right, multiplicity), sorted

    @property
    def f(self) -> Fraction:
        return Fraction(self.n_right, self.n_left)

    def left_masks(self) -> list[int]:
        masks = [0] * self.n_left
        for l, r, _ in self.edges:
            masks[l] |= 1 << r
        return masks

    def right_masks(self) -> list[int]:
        masks = [0] * self.n_right
        for l, r, _ in self.edges:
            masks[r] |= 1 << l
        return masks

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
    counts: dict[tuple[int, int], int] = {}
    for t in range(sockets):
        l = t // dv
        r = int(perm[t]) // delta
        counts[(l, r)] = counts.get((l, r), 0) + 1
    edges = tuple(sorted((l, r, m) for (l, r), m in counts.items()))
    return TannerGraph(n_left, n_right, delta, seed, edges)


def neighborhood(graph: TannerGraph, nodes: set[int] | frozenset[int], side: str) -> set[int]:
    """Exact neighborhood of a subset of left or right nodes."""
    n = graph.n_left if side == "left" else graph.n_right
    for v in nodes:
        if not (0 <= v < n):
            raise ValueError(f"node {v} out of range for side {side!r}")
    masks = graph.left_masks() if side == "left" else graph.right_masks()
    acc = 0
    for v in nodes:
        acc |= masks[v]
    out: set[int] = set()
    i = 0
    while acc:
        if acc & 1:
            out.add(i)
        acc >>= 1
        i += 1
    return out


@dataclass(frozen=True)
class GoodnessVerdict:
    D: float
    direction: str  # left_to_right | right_to_left | both
    mode: str  # exhaustive | randomized
    violated_set: tuple[int, ...] | None
    violated_side: str | None
    subsets_checked: int

    @property
    def found_violation(self) -> bool:
        return self.violated_set is not None


def _direction_params(graph: TannerGraph, D: float, direction: str):
    """(masks, size bound, required expansion factor) for one direction."""
    f = float(graph.f)
    if direction == "left_to_right":
        return graph.left_masks(), int(graph.n_left / (D + 1)), f * D, "left"
    if direction == "right_to_left":
        return graph.right_masks(), int(graph.n_right / (D + 1)), D / f, "right"
    raise ValueError(f"unknown direction {direction!r}")


def _check_exhaustive(graph: TannerGraph, D: float, direction: str) -> tuple[tuple[int, ...] | None, str | None, int]:
    masks, max_size, factor, side = _direction_params(graph, D, direction)
    n = len(masks)
    checked = 0
    for size in range(1, max_size + 1):
        for subset in combinations(range(n), size):
            acc = 0
            for v in subset:
                acc |= masks[v]
            checked += 1
            if acc.bit_count() < factor * size:
                return subset, side, checked
    return None, None, checked


def _check_randomized(
    graph: TannerGraph, D: float, direction: str, budget: int, seed: int
) -> tuple[tuple[int, ...] | None, str | None, int]:
    """Greedy falsifier: grow S by the vertex with the smallest marginal
    neighborhood growth; every prefix is a candidate counterexample."""
    masks, max_size, factor, side = _direction_params(graph, D, direction)
    n = len(masks)
    if max_size < 1 or n == 0:
        return None, None, 0  # vacuously good: no subsets to check
    back = _back_adjacency(graph, side)
    gen = rng.generator(seed, "dgood", direction, D)
    checked = 0
    pool_cap = 64
    while checked < budget:
        current = int(gen.integers(0, n))
        subset = [current]
        acc = masks[current]
        checked += 1
        if acc.bit_count() < factor:
            return tuple(subset), side, checked
        while len(subset) < max_size and checked < budget:
            candidates = _expansion_pool(acc, back, subset, n, gen, pool_cap)
            if not candidates:
                break
            best = None
            best_gain = None
            for v in candidates:
                gain = (masks[v] | acc).bit_count() - acc.bit_count()
                if best_gain is None or gain < best_gain:
                    best, best_gain = v, gain
            subset.append(best)
            acc |= masks[best]
            checked += 1
            if acc.bit_count() < factor * len(subset):
                return tuple(sorted(subset)), side, checked
    return None, None, checked


def _back_adjacency(graph: TannerGraph, side: str) -> list[list[int]]:
    """For each opposite-side node, the same-side nodes touching it."""
    size = graph.n_right if side == "left" else graph.n_left
    adj: list[list[int]] = [[] for _ in range(size)]
    for l, r, _ in graph.edges:
        if side == "left":
            adj[r].append(l)
        else:
            adj[l].append(r)
    return adj


def _expansion_pool(acc: int, back: list[list[int]], subset: list[int], n, gen, cap: int) -> list[int]:
    """Candidate vertices likely to add little to N(S): those already
    sharing a covered neighbor, padded with random vertices."""
    in_subset = set(subset)
    pool: set[int] = set()
    rem = acc
    i = 0
    while rem and len(pool) < cap:
        if rem & 1:
            for v in back[i]:
                if v not in in_subset:
                    pool.add(v)
        rem >>= 1
        i += 1
    pool_list = list(pool)
    if len(pool_list) > cap:
        idx = gen.choice(len(pool_list), size=cap, replace=False)
        pool_list = [pool_list[int(j)] for j in idx]
    while len(pool_list) < min(cap, n - len(subset)):
        v = int(gen.integers(0, n))
        if v not in in_subset and v not in pool_list:
            pool_list.append(v)
        else:
            break  # dense subset; good enough
    return pool_list


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
    refused above EXHAUSTIVE_NODE_LIMIT nodes; randomized mode spends
    ``budget`` candidate subsets on a greedy falsifier and reports either
    a verified violation witness or "no violation found".
    """
    if D < 1:
        raise ValueError("D must be >= 1")
    directions = ["left_to_right", "right_to_left"] if direction == "both" else [direction]
    total_checked = 0
    for d in directions:
        side_n = graph.n_left if d == "left_to_right" else graph.n_right
        if mode == "exhaustive":
            if side_n > EXHAUSTIVE_NODE_LIMIT:
                raise BudgetExceededError(
                    f"exhaustive D-goodness refused for {side_n} > {EXHAUSTIVE_NODE_LIMIT} nodes"
                )
            witness, side, checked = _check_exhaustive(graph, D, d)
        elif mode == "randomized":
            witness, side, checked = _check_randomized(graph, D, d, budget // len(directions), seed)
        else:
            raise ValueError(f"unknown mode {mode!r}")
        total_checked += checked
        if witness is not None:
            _assert_violation(graph, witness, side, D)
            return GoodnessVerdict(D, direction, mode, tuple(witness), side, total_checked)
    return GoodnessVerdict(D, direction, mode, None, None, total_checked)


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
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    n_left, n_right, delta, seed = (int(t) for t in lines[0].split())
    edges = tuple(tuple(int(t) for t in ln.split()) for ln in lines[1:])
    if any(len(e) != 3 for e in edges):
        raise ValueError("edge lines must be 'left right multiplicity'")
    return TannerGraph(n_left, n_right, delta, seed, tuple(sorted(edges)))
