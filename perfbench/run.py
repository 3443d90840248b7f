"""Benchmark of `simulate` throughput and the verifier kernels.

    python3 perfbench/run.py --workload sim-exact --seed 1 --seconds 20 --trace 0

Run from the repository root.  The package is imported from ``src/`` next
to this directory, never from an installed copy.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
runs the same rounds untraced and then traced, and reports the per-layer
metrics and the tracing overhead.  A fuller record of each run, and with
``--trace 1`` the spans, are written under ``.perfbench/`` at the root.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_PROBES = 7


def import_package():
    """lda_lab from ``src/`` of this checkout; exits 1 when it is absent."""
    sys.path.insert(0, str(SRC))
    try:
        import lda_lab
        import lda_lab.cli  # noqa: F401  (the package does not import cli itself)
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import lda_lab from {SRC}: {exc}")
    if Path(lda_lab.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"perfbench: lda_lab was imported from {lda_lab.__file__}, not from {SRC}")
    return lda_lab


def measure(workload, seconds: float) -> list:
    """Whole rounds 0, 1, ... until ``seconds`` have passed; at least one.

    Returns (round index, inputs, Round, wall seconds of the timed call).
    A round that raises has all its operations counted as failed.
    """
    results = []
    t_end = time.perf_counter() + seconds
    k = 0
    while True:
        inputs = workload.prepare(k)
        start = time.perf_counter()
        try:
            rnd = workload.run(k, inputs)
        except Exception:  # the run goes on; the round's operations failed
            traceback.print_exc()
            ops = workload.ops_per_round()
            rnd = workloads.Round(ops, ops, None)
        results.append((k, inputs, rnd, time.perf_counter() - start))
        k += 1
        if time.perf_counter() >= t_end:
            return results


def check_rounds(workload, results) -> list[str]:
    """The per-round output checks, run after the timed rounds.  A round
    whose output fails one has all its operations counted as failed."""
    problems = []
    for k, inputs, rnd, _dt in results:
        found = [] if rnd.failed else workload.check_round(k, inputs, rnd)
        if found:
            rnd.failed = rnd.ops
            problems += [f"round {k}: {p}" for p in found]
    return problems


def rate(results) -> float:
    """Completed operations per second over all the timed calls."""
    return sum(r.ops - r.failed for _k, _i, r, _dt in results) / sum(dt for *_x, dt in results)


def warm_rate(results) -> float:
    """``rate`` without the first round, which may be cold, when there are more."""
    return rate(results[1:] or results)


def setup_seconds(name: str, seed: int, workdir: Path) -> list[float]:
    """Set-up time of fresh processes: from just before each is started to
    its first timed call would be (interpreter, ``import lda_lab``, config
    parse and resolve, input generation).  ``perf_counter`` reads the
    system-wide monotonic clock, so the two processes' readings compare."""
    times = []
    for i in range(SETUP_PROBES):
        probe_dir = workdir / f"probe{i}"
        probe_dir.mkdir()
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", name,
             "--seed", str(seed), "--workdir", str(probe_dir)],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]) - start)
    return times


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--workdir", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        lda_lab = import_package()
        workloads.WORKLOADS[args.workload](args.workload, args.seed, Path(args.workdir),
                                           lda_lab).setup()
        print(repr(time.perf_counter()))
        return 0

    lda_lab = import_package()
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    workdir.mkdir()
    try:
        return run(args, lda_lab, tag, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, lda_lab, tag: str, workdir: Path) -> int:
    workload = workloads.WORKLOADS[args.workload](args.workload, args.seed, workdir, lda_lab)
    workload.setup()
    results = measure(workload, args.seconds)
    problems = check_rounds(workload, results)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "round_rates": [(r.ops - r.failed) / dt for _k, _i, r, dt in results]}

    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer, lda_lab)
        try:
            traced_results = measure(workload, args.seconds)
        finally:
            tracer.uninstall()
        problems += check_rounds(workload, traced_results)
        points = sum(r.ops - r.failed for _k, _i, r, _dt in traced_results
                     if args.workload.startswith("sim"))
        layers = spans.layer_metrics(tracer.spans, tracer.main_thread, points)
        # The first round of each phase is left out: only the untraced one is
        # cold.  It reads 0 when every round failed.
        warm = warm_rate(results)
        overhead = 100.0 * (warm - warm_rate(traced_results)) / warm if warm else 0.0
        layers["trace.overhead_pct"] = (overhead, "%")
        metrics = {name: metric(v, unit) for name, (v, unit) in layers.items()}
        tracer.dump(OUT / f"trace-{tag}.jsonl")
        record["traced_round_rates"] = [(r.ops - r.failed) / dt
                                        for _k, _i, r, dt in traced_results]
        results = results + traced_results
    else:
        setups = setup_seconds(args.workload, args.seed, workdir)
        record["setup_s"] = setups
        metrics = {
            "ops_per_s": metric(rate(results), "ops/s"),
            "setup_s": metric(statistics.median(setups), "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }

    problems += workload.check_sample([(k, i, r) for k, i, r, _dt in results])
    for p in problems:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    attempted = sum(r.ops for _k, _i, r, _dt in results)
    failed = sum(r.failed for _k, _i, r, _dt in results)
    summary = {"correct": not problems, "attempted": attempted, "failed": failed,
               "metrics": metrics}
    record.update(summary, problems=problems)
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
