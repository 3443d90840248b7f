"""The package's public names, and the ones the benchmark's tracer wraps."""

from __future__ import annotations

from pathlib import Path

import lda_lab
import lda_lab.cli  # spans.install wraps the runner, which the package does not import


def test_every_public_name_resolves_and_none_repeats():
    assert len(set(lda_lab.__all__)) == len(lda_lab.__all__)
    assert [name for name in lda_lab.__all__ if not hasattr(lda_lab, name)] == []


def test_the_benchmark_tracer_wraps_and_restores_the_package(monkeypatch):
    # perfbench/spans.py wraps functions where their callers look them up,
    # some of them (codec.rank, codec.solve) kept for it alone; install
    # fails on a name that is gone, and uninstall must put each one back.
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
    assert {("lda_lab.codec", "rank"), ("lda_lab.codec", "solve"), ("lda_lab.lattice", "rank"),
            ("ConstructionALattice", "codewords")} <= wrapped
    assert [{name: id(value) for name, value in vars(owner).items()} for owner in owners] == before
