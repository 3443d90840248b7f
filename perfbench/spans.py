"""Spans around the package's public functions, recorded from outside.

``Tracer.install`` replaces each traced function where its callers look it
up (a module attribute such as ``codec.build_pair``, or a method of
``ConstructionALattice``) with a wrapper that records a span: name, start,
end, parent span and thread.  Spans stay in memory until the run ends.
``uninstall`` puts the original functions back.

A span opened on a worker thread with no open span of its own takes the
innermost open span of the main thread as its parent: that is the runner
call whose thread pool started the work.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time

import numpy as np

# Percentiles tried for a tail figure, highest first; a tail needs at least
# ten samples beyond it, and no tail is given below forty samples.
TAIL_LADDER = (99.9, 99.0, 90.0, 75.0)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent, name, thread, start, end, attrs)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self.main_thread = threading.get_ident()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self.main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs, pre=None, post=None):
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        span_id = next(self._ids)
        before = pre(args) if pre else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        attrs = post(args, result, before) if post else None
        self.spans.append((span_id, parent, name, threading.get_ident(), start, end, attrs))
        return result

    def wrap(self, owner, attr: str, name: str, pre=None, post=None) -> None:
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, pre, post)

        self._restore.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, thread, start, end, attrs in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name, "thread": thread,
                                     "start": start, "end": end, "attrs": attrs}) + "\n")


def install(tracer: Tracer, lda_lab) -> None:
    """Wrap every traced public function of the package."""
    cli, codec, expander = lda_lab.cli, lda_lab.codec, lda_lab.expander
    lattice, channel, rng = lda_lab.lattice, lda_lab.channel, lda_lab.rng
    lat_cls = lattice.ConstructionALattice
    planted = cli.planted_counterexample()

    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(cli, "run_monte_carlo", "cli.run_monte_carlo")
    tracer.wrap(cli, "verify_expansion", "cli.verify_expansion")
    tracer.wrap(cli, "verify_mindist", "cli.verify_mindist")

    tracer.wrap(codec, "build_pair", "codec.build_pair",
                post=lambda a, r, b: {"attempts": r.regenerations + 1})
    tracer.wrap(codec, "encode", "codec.encode")
    tracer.wrap(codec, "mmse_decode_exact", "codec.mmse_decode_exact")
    tracer.wrap(codec, "bp_decode", "codec.bp_decode",
                post=lambda a, r, b: {"iterations": r.iterations, "verified": bool(r.verified),
                                      "edges": int(np.count_nonzero(a[0].stack.lower.array))})
    tracer.wrap(codec, "build_fine_lattice", "codec.build_fine_lattice")

    # gfmatrix and expander functions, where codec, lattice and cli find them.
    tracer.wrap(codec, "rank", "gfmatrix.rank")
    tracer.wrap(lattice, "rank", "gfmatrix.rank")
    tracer.wrap(codec, "solve", "gfmatrix.solve")
    tracer.wrap(codec, "build_graph", "expander.build_graph")
    tracer.wrap(expander, "build_graph", "expander.build_graph")

    def check_name(args):
        return "planted" if args[0] == planted else "graph"

    tracer.wrap(expander, "check_d_good", "expander.check_d_good", pre=check_name,
                post=lambda a, r, b: {"kind": b, "subsets": r.subsets_checked})

    def table_rows(lat):
        table = getattr(lat, "_codewords", None)
        return 0 if table is None else int(table.shape[0])

    def codewords_post(args, table, was_empty):
        if not was_empty:
            return {"build": False}
        return {"build": True, "rows": int(table.shape[0]), "bytes": int(table.nbytes)}

    tracer.wrap(lat_cls, "codewords", "lattice.codewords",
                pre=lambda a: getattr(a[0], "_codewords", None) is None, post=codewords_post)
    tracer.wrap(lat_cls, "quantize", "lattice.quantize",
                post=lambda a, r, b: {"rows": table_rows(a[0])})
    tracer.wrap(lat_cls, "min_hamming_weight", "lattice.min_hamming_weight")

    tracer.wrap(channel, "awgn_transmit", "channel.awgn_transmit")
    tracer.wrap(rng, "generator", "rng.generator")


# ---------------------------------------------------------------------------
# Per-layer figures


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def _tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest ladder percentile with at least
    ten samples beyond it; (0, 0) below forty samples."""
    n = len(values)
    if n < 40:
        return 0.0, 0.0
    for q in TAIL_LADDER:
        if n * (1 - q / 100.0) >= 10:
            return float(np.percentile(values, q)), q
    return 0.0, 0.0


def layer_metrics(spans: list[tuple], main_thread: int, points: int) -> dict[str, tuple[float, str]]:
    """Every per-layer figure, as name -> (value, unit).

    ``busy_s`` is the summed duration of a function's calls, children
    included.  ``<module>.self_s`` sums the self time (duration minus the
    union of its child spans) of every span of that module.  The wall time
    is the summed duration of the root spans, the benchmark's own calls
    into the package; ``points`` is the trial x SNR points they completed.
    """
    by_name: dict[str, list[tuple]] = {}
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        by_name.setdefault(s[2], []).append(s)
        if s[1] is not None:
            children.setdefault(s[1], []).append((s[4], s[5]))

    def self_time(s) -> float:
        kids = [(max(a, s[4]), min(b, s[5])) for a, b in children.get(s[0], ()) if b > s[4] and a < s[5]]
        return (s[5] - s[4]) - _union_length(kids)

    def durations(name, keep=None):
        return [s[5] - s[4] for s in by_name.get(name, ()) if keep is None or keep(s)]

    def attr_sum(name, key, keep=None):
        return sum((s[6] or {}).get(key, 0) for s in by_name.get(name, ()) if keep is None or keep(s))

    out: dict[str, tuple[float, str]] = {}

    def timed(name, prefix, scale=1e3, unit="ms", keep=None):
        d = durations(name, keep)
        out[f"{prefix}.calls"] = (len(d), "count")
        out[f"{prefix}.{unit}_p50"] = (float(np.median(d)) * scale if d else 0.0, unit)
        tail, pct = _tail(d)
        out[f"{prefix}.{unit}_tail"] = (tail * scale, unit)
        out[f"{prefix}.{unit}_tail.pct"] = (pct, "%")
        out[f"{prefix}.busy_s"] = (sum(d), "s")

    wall = sum(s[5] - s[4] for s in spans if s[1] is None)
    runner = by_name.get("cli.run_monte_carlo", [])
    out["cli.run_monte_carlo.self_s"] = (sum(self_time(s) for s in runner), "s")
    out["cli.points"] = (points, "count")

    pairs = durations("codec.build_pair")
    out["codec.build_pair.calls"] = (len(pairs), "count")
    out["codec.build_pair.busy_s"] = (sum(pairs), "s")
    attempts = attr_sum("codec.build_pair", "attempts")
    out["codec.build_pair.attempts_per_pair"] = (attempts / len(pairs) if pairs else 0.0, "ratio")

    out["gfmatrix.rank.busy_s"] = (sum(durations("gfmatrix.rank")), "s")
    out["gfmatrix.solve.calls"] = (len(durations("gfmatrix.solve")), "count")
    out["gfmatrix.solve.busy_s"] = (sum(durations("gfmatrix.solve")), "s")
    out["expander.build_graph.calls"] = (len(durations("expander.build_graph")), "count")
    out["expander.build_graph.busy_s"] = (sum(durations("expander.build_graph")), "s")

    timed("codec.encode", "codec.encode")

    builds = [s for s in by_name.get("lattice.codewords", ()) if s[6] and s[6]["build"]]
    out["lattice.codewords.builds"] = (len(builds), "count")
    out["lattice.codewords.busy_s"] = (sum(durations("lattice.codewords")), "s")
    out["lattice.codewords.rows"] = (sum(s[6]["rows"] for s in builds), "count")
    out["lattice.codewords.mb"] = (sum(s[6]["bytes"] for s in builds) / 1e6, "MB")
    # The encoder quantizes in the small shaping lattice and the exact
    # decoder in the fine one; their call times are told apart by caller.
    names = {s[0]: s[2] for s in spans}

    def in_encoder(s):
        return names.get(s[1]) == "codec.encode"

    out["lattice.quantize.calls"] = (len(durations("lattice.quantize")), "count")
    out["lattice.quantize.busy_s"] = (sum(durations("lattice.quantize")), "s")
    out["lattice.quantize.rows_scanned"] = (attr_sum("lattice.quantize", "rows"), "count")
    timed("lattice.quantize", "lattice.quantize.fine", keep=lambda s: not in_encoder(s))
    timed("lattice.quantize", "lattice.quantize.shaping", keep=in_encoder)

    timed("codec.mmse_decode_exact", "codec.mmse_decode_exact")

    timed("codec.bp_decode", "codec.bp_decode")
    bp = by_name.get("codec.bp_decode", [])
    out["codec.bp_decode.iterations"] = (attr_sum("codec.bp_decode", "iterations"), "count")
    out["codec.bp_decode.edge_updates"] = (
        sum(s[6]["iterations"] * s[6]["edges"] for s in bp), "count")
    out["codec.bp_decode.verified_ratio"] = (
        sum(s[6]["verified"] for s in bp) / len(bp) if bp else 0.0, "ratio")

    out["channel.awgn_transmit.busy_s"] = (sum(durations("channel.awgn_transmit")), "s")
    out["rng.generator.calls"] = (len(durations("rng.generator")), "count")
    out["rng.generator.busy_s"] = (sum(durations("rng.generator")), "s")

    def graph_check(s):
        return s[6]["kind"] == "graph"

    timed("expander.check_d_good", "expander.check_d_good", scale=1.0, unit="s", keep=graph_check)
    out["expander.check_d_good.subsets_checked"] = (
        attr_sum("expander.check_d_good", "subsets", graph_check), "count")

    timed("lattice.min_hamming_weight", "lattice.min_hamming_weight")
    out["codec.build_fine_lattice.busy_s"] = (sum(durations("codec.build_fine_lattice")), "s")

    # Self time by module, and how much of the wall time it accounts for.
    # Spans of two worker threads can run at once (one waiting for the
    # interpreter lock), so their self times add up to the wall time plus
    # the time the worker threads overlapped.
    modules = ("cli", "codec", "gfmatrix", "expander", "lattice", "channel", "rng")
    selfs = {m: 0.0 for m in modules}
    workers: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        selfs[s[2].split(".", 1)[0]] += self_time(s)
        if s[3] != main_thread:
            workers.setdefault(s[3], []).append((s[4], s[5]))
    for m in modules:
        out[f"{m}.self_s"] = (selfs[m], "s")
    overlap = (sum(_union_length(iv) for iv in workers.values())
               - _union_length([iv for ivs in workers.values() for iv in ivs]))
    out["trace.wall_s"] = (wall, "s")
    out["trace.thread_overlap_s"] = (overlap, "s")
    out["trace.accounted_pct"] = (
        100.0 * (sum(selfs.values()) - overlap) / wall if wall else 0.0, "%")
    out["trace.spans"] = (len(spans), "count")
    return out
