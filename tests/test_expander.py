"""Tanner graph construction, neighborhoods, D-goodness, thresholds."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lda_lab import rng
from lda_lab.expander import (
    BudgetExceededError,
    TannerGraph,
    biadjacency,
    binary_entropy,
    binomial_bounds,
    build_graph,
    check_d_good,
    delta_threshold,
    delta_threshold_two_sided,
    export_text,
    import_text,
    lda_delta_p_threshold,
    neighborhood,
)


def complete_bipartite(nl: int, nr: int) -> TannerGraph:
    return TannerGraph.from_edges(nl, nr, [(l, r) for l in range(nl) for r in range(nr)])


def test_build_graph_degrees_before_unification():
    g = build_graph(10, Fraction(1, 2), 4, seed=9)
    assert g.n_right == 5
    assert g.degree_histogram("right") == {4: 5}
    assert g.degree_histogram("left") == {2: 10}


def test_build_graph_deterministic():
    a = build_graph(10, Fraction(1, 2), 4, seed=3)
    b = build_graph(10, Fraction(1, 2), 4, seed=3)
    assert a.edges == b.edges
    assert a == b and hash(a) == hash(b)
    c = build_graph(10, Fraction(1, 2), 4, seed=4)
    assert a.edges != c.edges


def test_build_graph_matches_socket_wiring():
    # Independent reconstruction of the socket convention: left socket t
    # belongs to variable t // dv, right socket s to check s // delta.
    n_left, f, delta, seed = 4, Fraction(1, 2), 2, 21
    g = build_graph(n_left, f, delta, seed)
    perm = rng.generator(seed, "tanner-perm", 4, 2, 2).permutation(4)
    expected: dict[tuple[int, int], int] = {}
    for t in range(4):
        pair = (t // 1, int(perm[t]) // 2)
        expected[pair] = expected.get(pair, 0) + 1
    assert g.edges == tuple(sorted((l, r, m) for (l, r), m in expected.items()))


def test_degree_conservation_over_seeds():
    for seed in range(20):
        g = build_graph(12, Fraction(1, 3), 6, seed=seed)
        left_total = sum(d * c for d, c in g.degree_histogram("left").items())
        right_total = sum(d * c for d, c in g.degree_histogram("right").items())
        assert left_total == right_total == g.delta * g.n_right


def test_merged_edges_keep_multiplicity_and_cap_degrees():
    for seed in range(40):
        g = build_graph(6, Fraction(1, 1), 6, seed=seed)
        # distinct-neighbor degrees never exceed the socket counts that
        # include edge multiplicity
        for side in ("left", "right"):
            sockets = g.degree_histogram(side, count_multiplicity=True)
            distinct = g.degree_histogram(side, count_multiplicity=False)
            assert max(distinct) <= max(sockets)


def test_neighborhood_empty_and_complete():
    g = complete_bipartite(4, 2)
    assert neighborhood(g, set(), "left") == set()
    for s in ({0}, {1, 3}, {0, 1, 2, 3}):
        assert neighborhood(g, s, "left") == {0, 1}


def test_neighborhood_seven_by_four_graph():
    # Fixed 7x4 bipartite wiring; the first two left vertices see exactly
    # three of the four right vertices.
    edges = [(0, 1), (0, 2), (1, 0), (1, 1), (2, 0), (2, 2), (3, 2), (3, 3),
             (4, 1), (4, 2), (5, 0), (5, 3), (6, 0), (6, 1)]
    g = TannerGraph.from_edges(7, 4, edges)
    assert neighborhood(g, {0, 1}, "left") == {0, 1, 2}


def test_neighborhood_rejects_out_of_range():
    g = complete_bipartite(3, 2)
    with pytest.raises(ValueError):
        neighborhood(g, {5}, "left")


def test_neighborhood_rejects_unknown_side():
    g = complete_bipartite(3, 2)
    with pytest.raises(ValueError, match="side must be"):
        neighborhood(g, {0}, "middle")


def test_check_d_good_complete_bipartite_exhaustive():
    # K_{4,2}: every nonempty S of size <= 2 has |N(S)| = 2 >= |S|/2.
    g = complete_bipartite(4, 2)
    verdict = check_d_good(g, 1.0, "left_to_right", "exhaustive")
    assert not verdict.found_violation
    assert verdict.subsets_checked == 4 + 6  # sizes 1 and 2
    assert verdict.min_expansion_ratio == 2 / (0.5 * 1.0 * 2)  # |N(S)| = 2 at |S| = 2


def test_check_d_good_finds_planted_violation():
    # Two left nodes share one single neighbor: |N({0,1})| = 1 < 2*2.
    n = 9
    pairs = [(0, 0), (1, 0)]
    for v in range(2, n):
        pairs += [(v, v % n), (v, (v + 1) % n), (v, (v + 3) % n)]
    g = TannerGraph.from_edges(n, n, pairs)
    exact = check_d_good(g, 2.0, "left_to_right", "exhaustive")
    assert exact.found_violation
    randomized = check_d_good(g, 2.0, "left_to_right", "randomized", budget=5000, seed=1)
    assert randomized.found_violation
    witness = set(randomized.violated_set)
    assert len(neighborhood(g, witness, "left")) < 2.0 * len(witness)
    assert len(witness) <= g.n_left / 3


def test_check_d_good_vacuous_when_no_subsets():
    g = complete_bipartite(4, 4)
    verdict = check_d_good(g, 5.0, "left_to_right", "exhaustive")  # n/(D+1) < 1
    assert not verdict.found_violation
    assert verdict.subsets_checked == 0


@pytest.mark.parametrize("direction, budget", [("both", 0), ("both", 1), ("left_to_right", 0)])
def test_check_d_good_refuses_budget_below_one_subset_per_direction(direction, budget):
    g = build_graph(20, Fraction(1, 2), 12, seed=5)
    with pytest.raises(ValueError, match="fewer than one subset"):
        check_d_good(g, 2.0, direction, "randomized", budget=budget)


def test_check_d_good_exhaustive_refuses_large_graphs():
    g = build_graph(32, Fraction(1, 2), 4, seed=0)
    with pytest.raises(BudgetExceededError):
        check_d_good(g, 2.0, "left_to_right", "exhaustive")


def test_randomized_checker_agrees_with_exhaustive_on_good_graph():
    g = build_graph(20, Fraction(1, 2), 12, seed=5)
    verdict = check_d_good(g, 2.0, "both", "randomized", budget=20_000, seed=2)
    assert not verdict.found_violation
    exhaustive = check_d_good(g, 2.0, "left_to_right", "exhaustive")
    assert not exhaustive.found_violation


# Threshold values frozen from an independent evaluation of the closed
# forms with h the binary entropy (see also the acceptance suite).
def test_delta_threshold_values():
    assert delta_threshold(2, 0.5) == pytest.approx(10.948204179833828, abs=1e-9)
    assert delta_threshold(1, 0.5) == pytest.approx(3.0, abs=1e-12)  # h(1) = 0
    assert delta_threshold(1, 2.0) == pytest.approx(1.5, abs=1e-12)
    assert delta_threshold_two_sided(2, 0.5) == pytest.approx(
        max(10.948204179833828, 6.0, 9.0), abs=1e-9
    )


def test_lda_delta_p_threshold_values():
    assert lda_delta_p_threshold(5, 0.75) == pytest.approx(101.0, abs=1e-9)
    assert lda_delta_p_threshold(1, 0.5) == pytest.approx(3.0, abs=1e-12)


def test_lda_threshold_monotone_in_D():
    values = [lda_delta_p_threshold(D, 0.6) for D in range(2, 11)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_binary_entropy():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0 and binary_entropy(1.0) == 0.0
    for theta in (0.1, 0.25, 0.4):
        assert binary_entropy(theta) == pytest.approx(binary_entropy(1 - theta), abs=1e-12)


def test_binomial_bounds_bracket_central_coefficient():
    lower, upper = binomial_bounds(20, 0.5)
    assert lower <= math.comb(20, 10) <= upper


def test_binomial_bounds_exhaustive_small_n():
    for n in range(2, 31):
        for k in range(1, n):
            lower, upper = binomial_bounds(n, k / n)
            assert lower <= math.comb(n, k) <= upper


def test_export_import_round_trip():
    g = build_graph(10, Fraction(1, 2), 4, seed=77)
    text = export_text(g)
    back = import_text(text)
    assert back.edges == g.edges
    assert export_text(back) == text


@pytest.mark.parametrize("text, line", [
    ("", 1),
    ("\n  \n", 1),
    ("4 2 0 0\n-1 0 1\n", 2),  # negative left index
    ("4 2 0 0\n0 1 1\n3 2 1\n", 3),  # right index past n_right
    ("4 2 0 0\n0 1 0\n", 2),  # zero multiplicity
    ("-4 2 0 0\n", 1),  # negative size in the header
    ("4 2 0\n", 1),  # short header
    ("4 2 0 0\n0 1\n", 2),  # short edge
    ("4 2 0 0\n0 x 1\n", 2),
])
def test_import_text_rejects_malformed_input(text, line):
    with pytest.raises(ValueError, match=f"line {line}:"):
        import_text(text)


@st.composite
def small_graphs(draw):
    """Permutation-model graphs with at most 16 nodes a side, so that the
    exhaustive checker accepts them."""
    f = draw(st.sampled_from([Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1)]))
    n_left = f.denominator * draw(st.integers(1, 16 // f.denominator))
    delta = f.denominator * draw(st.integers(1, 3))
    return build_graph(n_left, f, delta, seed=draw(st.integers(0, 2**32)))


@settings(max_examples=60, deadline=None)
@given(graph=small_graphs(), D=st.sampled_from([1.0, 1.5, 2.0, 3.0]), seed=st.integers(0, 2**32))
def test_randomized_witnesses_hold_against_the_oracles(graph, D, seed):
    fast = check_d_good(graph, D, "both", "randomized", budget=400, seed=seed)
    exact = check_d_good(graph, D, "both", "exhaustive")
    if fast.found_violation:
        witness, side = set(fast.violated_set), fast.violated_side
        f = float(graph.f)
        n_side, need = (graph.n_left, f * D) if side == "left" else (graph.n_right, D / f)
        assert 0 < len(witness) <= n_side / (D + 1)
        assert len(neighborhood(graph, witness, side)) < need * len(witness)
        assert exact.found_violation
    elif not exact.found_violation:
        # The exhaustive minimum runs over every subset the greedy could see.
        assert fast.min_expansion_ratio >= exact.min_expansion_ratio >= 1.0


@settings(max_examples=60, deadline=None)
@given(graph=small_graphs(), data=st.data())
def test_biadjacency_rows_or_to_the_edge_list_neighborhood(graph, data):
    B = biadjacency(graph)
    for side, rows in (("left", B), ("right", B.T)):
        nodes = data.draw(st.sets(st.integers(0, rows.shape[0] - 1)))
        covered = rows[sorted(nodes)].any(axis=0)
        assert set(np.flatnonzero(covered).tolist()) == neighborhood(graph, nodes, side)
