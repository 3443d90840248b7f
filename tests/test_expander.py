"""Tanner graph construction, neighborhoods, D-goodness, thresholds."""

from __future__ import annotations

import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from lda_lab import expander, rng
from lda_lab.cli import planted_counterexample
from lda_lab.expander import (
    CHAINS_PER_BLOCK,
    MAX_CHECK_BYTES,
    MAX_SOCKETS,
    BudgetExceededError,
    TannerGraph,
    _check_randomized,
    biadjacency,
    binary_entropy,
    build_graph,
    build_graphs,
    check_d_good,
    delta_threshold,
    delta_threshold_two_sided,
    export_text,
    import_text,
    lda_delta_p_threshold,
    neighborhood,
    refuse_oversized_check,
)
from oracles import (
    build_graph_by_sockets,
    check_d_good_exhaustive,
    check_randomized_by_block,
    degree_histogram,
    edited_texts,
)


def complete_bipartite(nl: int, nr: int) -> TannerGraph:
    return TannerGraph.from_edges(nl, nr, [(l, r) for l in range(nl) for r in range(nr)])


def test_build_graph_degrees_before_unification():
    g = build_graph(10, Fraction(1, 2), 4, seed=9)
    assert g.n_right == 5
    assert degree_histogram(g, "right") == {4: 5}
    assert degree_histogram(g, "left") == {2: 10}


def test_build_graph_deterministic():
    a = build_graph(10, Fraction(1, 2), 4, seed=3)
    b = build_graph(10, Fraction(1, 2), 4, seed=3)
    assert np.array_equal(a.edges, b.edges)
    assert a == b and hash(a) == hash(b)
    c = build_graph(10, Fraction(1, 2), 4, seed=4)
    assert not np.array_equal(a.edges, c.edges) and a != c
    assert a.edges.dtype == np.int32 and not a.edges.flags.writeable


@pytest.mark.parametrize("n_left", [0, -4])
def test_build_graph_refuses_fewer_than_one_left_node(n_left):
    with pytest.raises(ValueError, match=f"n_left = {n_left} must be at least 1"):
        build_graph(n_left, Fraction(1, 2), 4, seed=1)


@st.composite
def graph_arguments(draw):
    """Valid build_graph arguments up to n_left = 300, some of them with a
    variable degree near the check count, so that parallel edges occur."""
    f = draw(st.sampled_from([Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(1)]))
    n_left = f.denominator * draw(st.integers(1, 300 // f.denominator))
    n_right = int(f * n_left)
    dv = draw(st.one_of(st.integers(1, 6), st.integers(max(1, n_right - 1), n_right + 2)))
    return n_left, f, int(dv / f), draw(st.integers(0, 2**64))


@settings(max_examples=40, deadline=None)
@given(graph_arguments())
@example((200, Fraction(1, 4), 20, rng.derive_key(505, "expansion", 0)))  # criterion 5
@example((4, Fraction(1, 2), 2, 21))
def test_build_graph_matches_socket_wiring(args):
    g, oracle = build_graph(*args), build_graph_by_sockets(*args)
    assert g == oracle and g.edges.tolist() == oracle.edges.tolist()
    event("parallel edges" if (g.edges[:, 2] > 1).any() else "simple")


@settings(max_examples=40, deadline=None)
@given(graph_arguments(), st.lists(st.integers(0, 2**64), max_size=5), st.integers(1, 3))
def test_stacked_graph_build_matches_socket_wiring_pass_by_pass(args, more, per_pass):
    # MAX_SOCKETS cut to the sockets of per_pass graphs, so a stack of up
    # to six is built in several passes; each graph is the one wired alone.
    n_left, f, delta, seed = args
    seeds = [seed, *more]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(expander, "MAX_SOCKETS", int(f * n_left) * delta * per_pass)
        graphs = build_graphs(n_left, f, delta, seeds)
    event(f"{-(-len(seeds) // per_pass)} passes")
    assert len(graphs) == len(seeds)
    for s, g in zip(seeds, graphs):
        oracle = build_graph_by_sockets(n_left, f, delta, s)
        assert g == oracle and g.edges.tolist() == oracle.edges.tolist()


def test_degree_conservation_over_seeds():
    for seed in range(20):
        g = build_graph(12, Fraction(1, 3), 6, seed=seed)
        left_total = sum(d * c for d, c in degree_histogram(g, "left").items())
        right_total = sum(d * c for d, c in degree_histogram(g, "right").items())
        assert left_total == right_total == g.delta * g.n_right


def test_merged_edges_keep_multiplicity_and_cap_degrees():
    for seed in range(40):
        g = build_graph(6, Fraction(1, 1), 6, seed=seed)
        # distinct-neighbor degrees never exceed the socket counts that
        # include edge multiplicity
        for side, n in (("left", g.n_left), ("right", g.n_right)):
            sockets = degree_histogram(g, side)
            distinct = {len(neighborhood(g, {v}, side)) for v in range(n)}
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
    verdict = check_d_good_exhaustive(g, 1.0, "left_to_right")
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
    exact = check_d_good_exhaustive(g, 2.0, "left_to_right")
    assert exact.found_violation
    randomized = check_d_good(g, 2.0, "left_to_right", budget=5000, seed=1)
    assert randomized.found_violation
    witness = set(randomized.violated_set)
    assert len(neighborhood(g, witness, "left")) < 2.0 * len(witness)
    assert len(witness) <= g.n_left / 3


def test_check_d_good_vacuous_when_no_subsets():
    g = complete_bipartite(4, 4)
    verdict = check_d_good_exhaustive(g, 5.0, "left_to_right")  # n/(D+1) < 1
    assert not verdict.found_violation
    assert verdict.subsets_checked == 0


@pytest.mark.parametrize("direction, budget", [("both", 0), ("both", 1), ("left_to_right", 0)])
def test_check_d_good_refuses_budget_below_one_subset_per_direction(direction, budget):
    g = build_graph(20, Fraction(1, 2), 12, seed=5)
    with pytest.raises(ValueError, match="fewer than one subset"):
        check_d_good(g, 2.0, direction, budget=budget)


@pytest.mark.parametrize("direction", ["left_to_right", "right_to_left", "both"])
@pytest.mark.parametrize("text, empty", [("6 0 0 0\n", "right"), ("0 6 0 0\n", "left")])
def test_check_d_good_refuses_a_graph_with_an_empty_side(monkeypatch, direction, text, empty):
    # Such graphs once gave a numpy RuntimeWarning and a ZeroDivisionError
    # (at D / f, or at Fraction(6, 0) for f).  The refusal names the empty
    # side and comes before any matrix is built.
    graph = import_text(text)
    monkeypatch.setattr("lda_lab.expander.biadjacency", lambda *a: pytest.fail("matrix built"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"graph has no {empty} node"):
            check_d_good(graph, 1.0, direction, budget=500)


def test_check_d_good_refuses_a_graph_too_large_for_its_dense_matrices():
    # Three edges, but a dense 10^12 x 10^11 biadjacency, counted at 9
    # bytes an entry: refused before any matrix is allocated.
    g = TannerGraph.from_edges(10**12, 10**11, [(0, 0), (1, 1), (2, 2)])
    need = 9 * 10**23
    with pytest.raises(BudgetExceededError, match=(
            f"expansion check refused: a dense {10**12} x {10**11} biadjacency, counted at 9 "
            f"bytes an entry, would need {need} bytes, over the allowed {MAX_CHECK_BYTES} bytes")):
        check_d_good(g, 2.0)
    # The boundary is the byte rule alone, so a side past 2^24 nodes passes.
    refuse_oversized_check(MAX_CHECK_BYTES // 9 // 4, 4)
    with pytest.raises(BudgetExceededError, match="would need"):
        refuse_oversized_check(MAX_CHECK_BYTES // 9 // 4 + 1, 4)


@pytest.mark.parametrize("D", [math.inf, -math.inf, math.nan, 0.5])
def test_check_d_good_and_the_thresholds_refuse_a_D_that_is_not_a_finite_number_of_at_least_1(D):
    # An infinite D once gave a clean verdict with 0 subsets checked, and a
    # NaN one an integer-conversion error that did not name D.
    g = build_graph(20, Fraction(1, 2), 12, seed=5)
    for call in (lambda: check_d_good(g, D), lambda: delta_threshold(D, 0.5),
                 lambda: lda_delta_p_threshold(D, 0.5)):
        with pytest.raises(ValueError, match=f"D = {D} must be a finite number >= 1"):
            call()


def test_randomized_checker_agrees_with_exhaustive_on_good_graph():
    g = build_graph(20, Fraction(1, 2), 12, seed=5)
    verdict = check_d_good(g, 2.0, "both", budget=20_000, seed=2)
    assert not verdict.found_violation
    exhaustive = check_d_good_exhaustive(g, 2.0, "left_to_right")
    assert not exhaustive.found_violation


def test_check_d_good_peaks_below_a_mebibyte_on_a_criterion_5_graph():
    # The grouped falsifier holds at most GROUP_BYTES of chains at a time;
    # a bound of 2^20 there peaks at about 1.02 MiB and fails this test.
    g = build_graph(200, Fraction(1, 4), 20, seed=rng.derive_key(505, "expansion", 0))
    tracemalloc.start()
    try:
        check_d_good(g, 2.0, "both", budget=100_000, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@st.composite
def falsifier_cases(draw):
    """(graph, D, direction, budget, seed): permutation-model graphs of 8 to
    300 left nodes and check degree from 3 to past the two-sided threshold,
    or the planted violation; budgets below one block, ending in a partial
    block, or 50,000.  The simplest draws (largest D, lowest degree, most
    nodes) violate."""
    D = draw(st.sampled_from([3.0, 2.0, 1.5, 1.0]))
    direction = draw(st.sampled_from(["right_to_left", "left_to_right"]))
    if draw(st.integers(0, 9)) == 9:
        graph = planted_counterexample()
    else:
        f = draw(st.sampled_from([Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(1)]))
        k = f.denominator
        low = -(-3 // k)
        top = math.ceil(delta_threshold_two_sided(D, float(f)) / k) + 1
        # Two graphs in three have the lowest degree, where most violate.
        degree = low if draw(st.integers(0, 2)) else draw(st.integers(low, top))
        n_left = draw(st.sampled_from(range(300 - 300 % k, 7, -k)))
        graph = build_graph(n_left, f, k * degree, seed=draw(st.integers(0, 2**32)))
    side = graph.n_left if direction == "left_to_right" else graph.n_right
    steps = max(1, int(side / (D + 1)))
    block = CHAINS_PER_BLOCK * steps
    budget = draw(st.one_of(st.builds(lambda whole, rest: whole * block + rest,
                                      st.integers(1, 3), st.integers(steps, block - 1)),
                            st.integers(1, block - 1), st.just(50_000)))
    return graph, D, direction, budget, draw(st.integers(0, 2**32))


def test_grouped_falsifier_gives_the_block_loop_verdicts():
    # Same draws, same (witness, side, checked, min_ratio) bit for bit, on a
    # fixed sample at least a third of which violates.
    violated = []

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(case=falsifier_cases())
    def agree(case):
        graph, D, direction, budget, seed = case
        verdict = _check_randomized(graph, D, direction, budget, seed)
        assert verdict == check_randomized_by_block(graph, D, direction, budget, seed)
        violated.append(verdict[0] is not None)

    agree()
    assert 3 * sum(violated) >= len(violated)


def wide_check_graph(seed: int) -> TannerGraph:
    """300 x 8 graph whose check 0 sees every left node, more than a uint8
    count holds; checks 1 to 7 see 40 random left nodes each."""
    draw = rng.generator(seed, "wide-check")
    pairs = [(v, 0) for v in range(300)]
    for r in range(1, 8):
        pairs += [(int(v), r) for v in draw.choice(300, size=40, replace=False)]
    return TannerGraph.from_edges(300, 8, pairs)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("case", ["a check of 300 neighbours, right to left",
                                  "190 covered nodes in 3 words, left to right"])
def test_falsifier_counts_wide_candidates_and_every_word_exactly(case, seed):
    # A check of 300 uncovered neighbours must not count as 44, and the
    # third word of a 190-node covered side must count: the float64
    # product of the block loop decides the same chains bit for bit.
    if case.startswith("a check"):
        graph, D, direction, budget = wide_check_graph(seed), 1.0, "right_to_left", 600
        assert biadjacency(graph).sum(axis=0).max() > 255
    else:
        graph, D, direction, budget = (build_graph(190, Fraction(1), 3, seed=seed), 2.0,
                                       "left_to_right", 3000)
        assert graph.n_right > 128
    verdict = _check_randomized(graph, D, direction, budget, seed)
    assert verdict == check_randomized_by_block(graph, D, direction, budget, seed)
    assert verdict[2] > CHAINS_PER_BLOCK  # past the first step, where counts choose the picks


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


def test_thresholds_refuse_a_D_whose_correction_rounds_to_zero():
    # The correction falls toward 0 as D grows; past about 1e15 it rounds
    # to 0, and the thresholds would divide by it.
    assert 0 < lda_delta_p_threshold(1e15, 0.5) < math.inf
    for D in (2.0**63, 1e308):
        for threshold in (delta_threshold, lda_delta_p_threshold):
            with pytest.raises(ValueError, match="too large: its expansion correction is"):
                threshold(D, 0.5)


def test_build_graph_refuses_more_sockets_than_allowed():
    # 2^39 checks of degree 8, refused before the permutation is drawn.
    with pytest.raises(BudgetExceededError, match=(
            f"graph build refused: n_right \\* delta = {2**42} sockets, "
            f"over the allowed {MAX_SOCKETS}")):
        build_graph(2**40, Fraction(1, 2), 8, seed=0)


def test_binary_entropy():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0 and binary_entropy(1.0) == 0.0
    for theta in (0.1, 0.25, 0.4):
        assert binary_entropy(theta) == pytest.approx(binary_entropy(1 - theta), abs=1e-12)


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
    assert back == g
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
    ("4 2 0 0\n0 1 1\n0 1 1\n", 3),  # repeated edge line
    ("4 2 0 0\n1 0 1\n0 1 1\n", 3),  # edges out of sorted order
])
def test_import_text_rejects_malformed_input(text, line):
    with pytest.raises(ValueError, match=f"line {line}:"):
        import_text(text)


GRAPH_TEXT = export_text(build_graph(10, Fraction(1, 2), 4, seed=77))
EXTREMES = [0, 1, -1, 4, 5, 10, 2**31 - 1, 2**31, 2**63, -10**20]


@settings(max_examples=200, deadline=None)
@given(text=edited_texts([GRAPH_TEXT], EXTREMES))
def test_import_text_refuses_or_round_trips_edited_graphs(text):
    try:
        graph = import_text(text)
    except ValueError:
        event("refused")
        return
    event("read")
    assert import_text(export_text(graph)) == graph


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
    fast = check_d_good(graph, D, "both", budget=400, seed=seed)
    exact = check_d_good_exhaustive(graph, D, "both")
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
