"""The package's public names, and the ones the benchmark's tracer wraps."""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import numpy as np

import lda_lab
import lda_lab.cli  # spans.install wraps the runner, which the package does not import


def test_every_public_name_resolves_and_none_repeats():
    assert len(set(lda_lab.__all__)) == len(lda_lab.__all__)
    assert [name for name in lda_lab.__all__ if not hasattr(lda_lab, name)] == []


def test_the_benchmark_tracer_wraps_and_restores_the_package(monkeypatch):
    # perfbench/spans.py wraps functions where their callers look them up,
    # some of them (codec.rank, codec.solve, codec.build_graph) kept for it
    # alone; install fails on a name that is gone, and uninstall must put
    # each one back.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import spans

    owners = [lda_lab.cli, lda_lab.codec, lda_lab.expander, lda_lab.lattice, lda_lab.channel,
              lda_lab.rng, lda_lab.lattice.ConstructionALattice]
    before = [{name: id(value) for name, value in vars(owner).items()} for owner in owners]
    tracer = spans.Tracer()
    spans.install(tracer, lda_lab)
    try:
        wrapped = {(owner.__name__, name) for owner, ids in zip(owners, before)
                   for name, value in vars(owner).items() if ids.get(name) != id(value)}
    finally:
        tracer.uninstall()
    assert {("lda_lab.codec", "rank"), ("lda_lab.codec", "solve"), ("lda_lab.codec", "build_graph"),
            ("lda_lab.lattice", "rank"), ("ConstructionALattice", "codewords")} <= wrapped
    assert [{name: id(value) for name, value in vars(owner).items()} for owner in owners] == before


def test_the_names_the_benchmark_reads_off_a_pair_resolve():
    # Tier-1 runs only tests/, so a change to a pair's shape would first
    # show in perfbench/test_smoke.py; these are the names workloads.py
    # reads off an LDA pair, its encoding, its BP decode and a fine lattice.
    codec = lda_lab.codec
    pair = codec.build_pair(12, 7, "1/4", "1/2", "lda", seed=1, delta_p=4)
    for block in (pair.stack.upper, pair.stack.lower, pair.stack.full):
        assert block.array.shape[1] == pair.n
    assert (pair.ell, pair.n, pair.p, pair.R) == (3, 12, 7, Fraction(1, 4))
    point = codec.encode(pair, np.arange(pair.ell)).point
    assert np.array_equal(pair.fine.quantize(point.astype(float)), point)
    res = codec.bp_decode(pair, point.astype(float), 100.0, 1e-3, iters=5)
    assert res.iterations >= 1 and res.verified in (True, False)
    assert res.point.shape == (pair.n,) and res.message.shape == (pair.ell,)
    lattice, graph = codec.build_fine_lattice(30, 31, Fraction(1, 2), 8, seed=1)
    assert lattice.H.array.shape == (15, 30) and (graph.n_left, graph.n_right) == (30, 15)
