"""The benchmark's workloads: how each builds its inputs from the seed, runs
one round through the package's public entry points, and checks outputs.

A round is a fixed set of operations.  Every run attempts whole rounds, so
the share of failed operations does not depend on the run's length.  A
round fails whole when its call raises or its output fails a check of
``check_round``; ``check_sample`` checks the kernels on a seeded sample
apart from the timed rounds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

import oracles

# The pinned LDA code family of the simulate workloads: n = 12, p = 7,
# R = 1/4, R_f = 1/2, delta_p = 4 (below the degree threshold, allowed).
FAMILY = {"n": 12, "p": 7, "R": "1/4", "Rf": "1/2", "kind": "lda", "delta_p": 4, "D": 2}

# Criterion-5 falsifier parameters and the criterion-6 supplement profile.
EXPANSION = {"n_left": 200, "f": Fraction(1, 4), "D": 2.0, "delta": 20, "budget": 100_000}
MINDIST = {"n": 30, "p": 31, "R_f": Fraction(1, 2), "delta_p": 8, "w_max": 4}


def round_seed(seed: int, workload: str, k: int) -> int:
    """The master seed of round k: a 63-bit hash of (workload, seed, k)."""
    digest = hashlib.blake2b(f"{workload}/{seed}/{k}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1


@dataclass
class Round:
    ops: int
    failed: int
    output: object = None


class Workload:
    """Inputs, one timed round and the output checks of one workload."""

    def __init__(self, name: str, seed: int, workdir: Path, lda_lab) -> None:
        self.name, self.seed, self.workdir, self.lda_lab = name, seed, workdir, lda_lab

    def prepare(self, k: int):
        """Untimed: the inputs of round k, made from the seed alone."""
        return round_seed(self.seed, self.name, k)

    def setup(self) -> None:
        """What a fresh process does before its first timed call."""
        self.prepare(0)

    def run(self, k: int, inputs) -> Round:
        """Timed: one round.  A raise is counted by the caller as a round
        whose operations all failed."""
        raise NotImplementedError

    def ops_per_round(self) -> int:
        raise NotImplementedError

    def check_round(self, k: int, inputs, rnd: Round) -> list[str]:
        """Problems in the output of round k, which did not raise."""
        raise NotImplementedError

    def check_sample(self, results: list[tuple[int, object, Round]]) -> list[str]:
        """Problems found on a seeded sample checked apart from the rounds."""
        return []


# ---------------------------------------------------------------------------
# simulate


class Simulate(Workload):
    decoder = ""
    grid: list[float] = []
    trials = 0
    extra: dict = {}

    def config(self, k: int) -> dict:
        cfg = dict(FAMILY, snr_db=self.grid, trials=self.trials, decoder=self.decoder,
                   seed=round_seed(self.seed, self.name, k), allow_below_threshold=True)
        cfg.update(self.extra)
        return cfg

    def write_config(self, cfg: dict, path: Path) -> None:
        lines = []
        for key, value in cfg.items():
            if isinstance(value, str):
                value = f'"{value}"'
            elif isinstance(value, bool):
                value = str(value).lower()
            lines.append(f"{key} = {value}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def prepare(self, k: int):
        cfg = self.config(k)
        path = self.workdir / f"round{k}.toml"
        self.write_config(cfg, path)
        return cfg, path, self.workdir / f"round{k}.csv"

    def setup(self) -> None:
        _cfg, path, _out = self.prepare(0)
        cli = self.lda_lab.cli
        cli.config_from_mapping(cli.load_config_file(str(path))).resolve()

    def ops_per_round(self) -> int:
        return self.trials * len(self.grid)

    def simulate(self, path: Path, out: Path, threads: int | None = None) -> int:
        argv = ["simulate", "--config", str(path), "--out", str(out)]
        if threads is not None:
            argv += ["--threads", str(threads)]
        with contextlib.redirect_stdout(io.StringIO()):
            return self.lda_lab.cli.main(argv)

    def run(self, k: int, inputs) -> Round:
        _cfg, path, out = inputs
        points = self.ops_per_round()
        code = self.simulate(path, out)
        return Round(points, 0 if code == 0 else points, out)

    # -- checks ------------------------------------------------------------

    def check_round(self, k: int, inputs, rnd: Round) -> list[str]:
        cfg, _path, out = inputs
        ell = int(FAMILY["n"] * (Fraction(FAMILY["Rf"]) - Fraction(FAMILY["R"])))
        return oracles.check_csv(out.read_text(encoding="utf-8"), cfg, ell)

    def sample_pairs(self, count: int):
        codec = self.lda_lab.codec
        gen = np.random.default_rng(round_seed(self.seed, self.name + "/sample", 0))
        fam = FAMILY
        for _ in range(count):
            pair = codec.build_pair(fam["n"], fam["p"], fam["R"], fam["Rf"], fam["kind"],
                                    seed=int(gen.integers(2**62)), delta_p=fam["delta_p"])
            yield pair, gen

    def check_encode(self, pair, message, shaping_table) -> tuple[np.ndarray, list[str]]:
        """Encode a message and check the point: H'x = m, H_f x = 0 and x in
        the shaping Voronoi region."""
        p = pair.p
        x = np.asarray(self.lda_lab.codec.encode(pair, message).point, dtype=np.int64)
        problems = []
        if not np.array_equal(oracles.mul_mod(pair.stack.upper.array, x, p), message % p):
            problems.append(f"encoded point {x.tolist()} has H'x != m")
        if oracles.mul_mod(pair.stack.lower.array, x, p).any():
            problems.append(f"encoded point {x.tolist()} is not in the fine lattice")
        if not oracles.in_voronoi_region(x, shaping_table, p):
            problems.append(f"encoded point {x.tolist()} is outside the shaping Voronoi region")
        return x, problems


def channel_params(p: int, R: Fraction, snr_db: float) -> tuple[float, float, float]:
    """(P, sigma2, alpha): nominal power p^(2(1-R))/(2 pi e), the noise
    variance at this SNR and the Wiener coefficient P/(P + sigma2)."""
    P = float(p) ** (2.0 * (1.0 - float(R))) / (2.0 * math.pi * math.e)
    sigma2 = P / (10.0 ** (snr_db / 10.0))
    return P, sigma2, P / (P + sigma2)


class SimExact(Simulate):
    decoder = "exact"
    grid = [6.0, 10.0]
    trials = 8
    extra = {"resample_lattice": True, "threads": 1}
    SAMPLE_PAIRS = 2
    SAMPLE_MESSAGES = 3

    def check_sample(self, results) -> list[str]:
        problems: list[str] = []
        codec = self.lda_lab.codec
        for pair, gen in self.sample_pairs(self.SAMPLE_PAIRS):
            p = pair.p
            fine = oracles.all_codewords(oracles.code_basis(pair.stack.lower.array, p), p)
            shaping = oracles.all_codewords(oracles.code_basis(pair.stack.full.array, p), p)
            for _ in range(self.SAMPLE_MESSAGES):
                message = gen.integers(0, p, size=pair.ell, dtype=np.int64)
                x, found = self.check_encode(pair, message, shaping)
                problems += found
                for snr_db in self.grid:
                    P, sigma2, alpha = channel_params(p, pair.R, snr_db)
                    y = x + gen.normal(0.0, math.sqrt(sigma2), size=pair.n)
                    want = np.array(oracles.closest_point_scan(fine, p, alpha * y))
                    got = pair.fine.quantize(alpha * y)
                    decoded = codec.mmse_decode_exact(pair, y, P, sigma2)
                    if not np.array_equal(got, want):
                        problems.append(f"exact decoder point {got.tolist()} != scan "
                                        f"{want.tolist()} at {snr_db} dB")
                    if not np.array_equal(decoded, oracles.mul_mod(pair.stack.upper.array, want, p)):
                        problems.append(f"exact decoder message {decoded.tolist()} != H' "
                                        f"of the closest point at {snr_db} dB")
        return problems


class SimBp(Simulate):
    decoder = "bp"
    grid = [2.0, 6.0, 10.0]
    trials = 5
    extra = {"bp_iters": 50, "resample_lattice": False, "threads": 2}
    SAMPLE_PAIRS = 2
    SAMPLE_TRIALS = 20
    AGREEMENT = 0.95  # criterion 10's rule at the 10 dB point

    def check_sample(self, results) -> list[str]:
        problems: list[str] = []
        codec = self.lda_lab.codec
        # Determinism: the first round again on one thread, byte for byte.
        k, (cfg, path, out), rnd = results[0]
        if not rnd.failed:
            single = self.workdir / f"round{k}-threads1.csv"
            if self.simulate(path, single, threads=1) != 0:
                problems.append("threads = 1 rerun failed")
            elif single.read_bytes() != out.read_bytes():
                problems.append(f"round {k}: threads = {cfg['threads']} CSV differs from "
                                "the threads = 1 CSV")
        agree = compared = 0
        for pair, gen in self.sample_pairs(self.SAMPLE_PAIRS):
            p = pair.p
            H_up, H_f = pair.stack.upper.array, pair.stack.lower.array
            shaping = oracles.all_codewords(oracles.code_basis(pair.stack.full.array, p), p)
            for _ in range(self.SAMPLE_TRIALS):
                message = gen.integers(0, p, size=pair.ell, dtype=np.int64)
                x, found = self.check_encode(pair, message, shaping)
                problems += found
                for snr_db in self.grid:
                    P, sigma2, _alpha = channel_params(p, pair.R, snr_db)
                    y = x + gen.normal(0.0, math.sqrt(sigma2), size=pair.n)
                    res = codec.bp_decode(pair, y, P, sigma2, iters=self.extra["bp_iters"])
                    if res.verified and oracles.mul_mod(H_f, res.point, p).any():
                        problems.append(f"BP result flagged verified has H_f x != 0 at {snr_db} dB")
                    if not np.array_equal(res.message, oracles.mul_mod(H_up, res.point, p)):
                        problems.append(f"BP message != H' x at {snr_db} dB")
                    if snr_db == self.grid[-1]:
                        exact = codec.mmse_decode_exact(pair, y, P, sigma2)
                        agree += np.array_equal(exact, res.message)
                        compared += 1
        if agree < self.AGREEMENT * compared:
            problems.append(f"BP agrees with exact decoding on {agree}/{compared} at "
                            f"{self.grid[-1]} dB, below {self.AGREEMENT:.0%}")
        return problems


# ---------------------------------------------------------------------------
# verifier kernels


class VerifyExpansion(Workload):
    """One criterion-5 graph per round through ``verify_expansion``, with its
    planted-violation check.  The verdicts are taken from a recording wrapper
    on ``expander.check_d_good``: two calls per six-second round."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        expander = self.lda_lab.expander
        self.verdicts: list = []
        check = expander.check_d_good

        def recording(graph, D, *args, **kwargs):
            verdict = check(graph, D, *args, **kwargs)
            self.verdicts.append((graph, D, verdict))
            return verdict

        expander.check_d_good = recording

    def ops_per_round(self) -> int:
        return 1

    def run(self, k: int, inputs) -> Round:
        e = EXPANSION
        start = len(self.verdicts)
        report = self.lda_lab.cli.verify_expansion(
            n_left=e["n_left"], f=e["f"], D=e["D"], delta=e["delta"], graphs=1,
            budget=e["budget"], master_seed=inputs, required_clean=1)
        return Round(1, 0, (report, self.verdicts[start:]))

    def check_round(self, k: int, inputs, rnd: Round) -> list[str]:
        report, verdicts = rnd.output
        planted = self.lda_lab.cli.planted_counterexample()
        graphs = [(g, D, v) for g, D, v in verdicts if g != planted]
        planted_runs = [(g, D, v) for g, D, v in verdicts if g == planted]
        if len(graphs) != 1 or len(planted_runs) != 1:
            return ["expected one graph and one planted check"]
        problems = [f"witness {v.violated_set} is not a violation"
                    for graph, D, v in graphs + planted_runs
                    if v.found_violation
                    and not oracles.witness_violates(graph, v.violated_set, v.violated_side, D)]
        if not planted_runs[0][2].found_violation:
            problems.append("the planted violation was not caught")
        clean = not graphs[0][2].found_violation
        if report.measured != float(clean) or report.passed != clean:
            problems.append(f"report {report.line()} disagrees with the verdict")
        return problems


class VerifyMindist(Workload):
    """Criterion-6 supplement codes through ``verify_mindist``, ten per round."""

    CODES = 10
    # Small profiles (n, p, R_f, delta_p) whose codes can be enumerated whole.
    SMALL = [(8, 5, Fraction(1, 2), 4), (10, 3, Fraction(1, 2), 4), (9, 7, Fraction(2, 3), 6)]

    def ops_per_round(self) -> int:
        return self.CODES

    def run(self, k: int, inputs) -> Round:
        m = MINDIST
        report = self.lda_lab.cli.verify_mindist(
            codes=self.CODES, n=m["n"], p=m["p"], R_f=m["R_f"], delta_p=m["delta_p"],
            w_max=m["w_max"], master_seed=inputs)
        return Round(self.CODES, 0, report)

    def check_round(self, k: int, inputs, rnd: Round) -> list[str]:
        if 0 <= rnd.output.measured <= self.CODES:
            return []
        return [f"offender count {rnd.output.measured} out of range"]

    def check_sample(self, results) -> list[str]:
        lda_lab = self.lda_lab
        problems: list[str] = []
        gen = np.random.default_rng(round_seed(self.seed, self.name + "/sample", 0))
        # Small seeded codes against a full enumeration of the code.
        for n, p, R_f, delta_p in self.SMALL:
            for _ in range(2):
                lat, _g = lda_lab.codec.build_fine_lattice(n, p, R_f, delta_p,
                                                           seed=int(gen.integers(2**62)))
                want = oracles.min_weight_by_enumeration(lat.H.array, p)
                for w_max in (2, n):
                    got = lat.min_hamming_weight(w_max)
                    expect = want if want is not None and want <= w_max else None
                    if got != expect:
                        problems.append(f"min_hamming_weight({w_max}) = {got} on an n={n} p={p} "
                                        f"code whose least weight is {want}")
        # A weight-2 word planted as two proportional columns.
        m = MINDIST
        for _ in range(2):
            lat, _g = lda_lab.codec.build_fine_lattice(m["n"], m["p"], m["R_f"], m["delta_p"],
                                                       seed=int(gen.integers(2**62)))
            H = lat.H.array.copy()
            j1, j2 = (int(j) for j in gen.choice(m["n"], size=2, replace=False))
            H[:, j2] = (int(gen.integers(1, m["p"])) * H[:, j1]) % m["p"]
            expect = 1 if not H.any(axis=0).all() else 2
            planted = lda_lab.lattice.ConstructionALattice(lda_lab.gfmatrix.GfMatrix(H, m["p"]))
            got = planted.min_hamming_weight(m["w_max"])
            if got != expect:
                problems.append(f"planted weight-{expect} word found at weight {got}")
        return problems


WORKLOADS = {
    "sim-exact": SimExact,
    "sim-bp": SimBp,
    "verify-expansion": VerifyExpansion,
    "verify-mindist": VerifyMindist,
}
