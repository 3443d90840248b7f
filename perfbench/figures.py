"""Regenerate the reference figures quoted in perfbench/README.md.

    python3 perfbench/figures.py

Every run lasts ``run_seconds`` of BENCHMARK.json.  For every workload:
ten untraced runs with seeds 1..10 (median,
quartiles and the quartile spread of each end-to-end metric, and the
first-round warm-up gap of the simulate workloads), then one traced run
with seed 1 (each module's share of the thread time, and the tracing
overhead).  Last, sim-bp at threads = 2 against threads = 1 on the same
inputs, alternating which goes first.  Takes about 25 minutes.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import run

RUNS = 10
MODULES = ("cli", "codec", "gfmatrix", "expander", "lattice", "channel", "rng")


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    subprocess.run([sys.executable, str(run.HERE / "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                   cwd=run.ROOT, check=True, capture_output=True, text=True, timeout=600)
    tag = f"{workload}-seed{seed}-trace{trace}"
    return json.loads((run.OUT / f"result-{tag}.json").read_text(encoding="utf-8"))


def spread_line(name: str, values: list[float]) -> str:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (f"  {name}: median {statistics.median(values):.4g}  quartiles {q1:.4g} / {q3:.4g}"
            f"  spread {(q3 - q1) / statistics.median(values):.1%}")


def threads_comparison(seconds: float, pairs: int) -> None:
    lda_lab = run.import_package()
    import workloads
    rates = {1: [], 2: []}
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        for i in range(pairs):
            for threads in ((2, 1) if i % 2 == 0 else (1, 2)):
                w = workloads.SimBp("sim-bp", 100 + i, Path(tmp), lda_lab)
                w.extra = dict(w.extra, threads=threads)
                results = run.measure(w, seconds)
                if run.check_rounds(w, results):
                    sys.exit("figures: a sim-bp round failed its checks")
                rates[threads].append(run.rate(results))
    t1, t2 = statistics.median(rates[1]), statistics.median(rates[2])
    print(f"sim-bp threads=1: median {t1:.1f} ops/s {[round(r, 1) for r in rates[1]]}")
    print(f"sim-bp threads=2: median {t2:.1f} ops/s {[round(r, 1) for r in rates[2]]}"
          f"  ({t2 / t1:.2f}x of one thread)")


def main() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    for w in spec["workloads"]:
        name = w["name"]
        records = [bench(name, seed, seconds, 0) for seed in range(1, RUNS + 1)]
        print(f"{name}: {RUNS} runs of {seconds} s")
        for m in spec["end_to_end"]:
            print(spread_line(m["name"], [r["metrics"][m["name"]]["value"] for r in records]))
        if name.startswith("sim"):
            gaps = [r["round_rates"][0] / statistics.median(r["round_rates"][1:])
                    for r in records if len(r["round_rates"]) > 1]
            print(f"  first round / median of later rounds: {statistics.median(gaps):.2f}")
        traced = bench(name, 1, seconds, 1)["metrics"]
        thread_time = traced["trace.wall_s"]["value"] + traced["trace.thread_overlap_s"]["value"]
        shares = ", ".join(f"{m} {traced[m + '.self_s']['value'] / thread_time:.1%}"
                           for m in MODULES if traced[m + ".self_s"]["value"] > 0)
        print(f"  self-time shares: {shares}")
        print(f"  tracing overhead: {traced['trace.overhead_pct']['value']:.1f}%")
    threads_comparison(seconds, pairs=3)


if __name__ == "__main__":
    main()
