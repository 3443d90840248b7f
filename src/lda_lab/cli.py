"""Experiment runner and verifier subcommands.

Every trial is a pure function of (config, master_seed, trial_index):
message, noise, and ensemble draws come from independently derived
streams, so results are byte-identical across runs and thread counts.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from fractions import Fraction
from hashlib import blake2b

import numpy as np

from . import channel, codec, expander, rng
from .expander import BudgetExceededError
from .fieldcore import nearest_prime
from .gfmatrix import GfMatrix
from .lattice import (
    DEFAULT_ENUMERATION_BUDGET,
    DEFAULT_QUANTIZER_BUDGET,
    BallSpec,
    ConstructionALattice,
    count_congruent_in_ball,
    count_integer_points,
    lemma2_bounds,
    lemmaC_bound,
    volume_ratio_check,
)

CSV_HEADER = "snr_db,n,p,R,Rf,kind,decoder,trials,symbol_errors,word_errors,ser,wer,wilson_lo,wilson_hi,seed"


# ---------------------------------------------------------------------------
# Configuration


@dataclass
class ExperimentConfig:
    n: int
    p: int | None = None
    lam: float | None = None  # p = nearest prime to n**lam when p is None
    R: Fraction = Fraction(1, 4)
    R_f: Fraction = Fraction(1, 2)
    kind: str = "dense"
    delta_p: int | None = None
    D: float = 2.0
    snr_db_grid: list[float] = field(default_factory=lambda: [10.0])
    gamma: float | None = None
    trials: int = 100
    decoder: str = "exact"
    bp_iters: int = 50
    bp_damping: float = 0.0
    master_seed: int = 0
    resample_lattice: bool = True
    allow_below_threshold: bool = False
    threads: int = 1
    quantizer_budget: int = DEFAULT_QUANTIZER_BUDGET
    enumeration_budget: int = DEFAULT_ENUMERATION_BUDGET
    goodness_budget: int = 100_000

    def resolve(self) -> "ExperimentConfig":
        """Pin the prime, validate integrality and degree thresholds."""
        cfg = self
        if cfg.p is None:
            if cfg.lam is None:
                raise ValueError("config needs p or lambda")
            cfg = replace(cfg, p=nearest_prime(float(cfg.n) ** cfg.lam))
        for prod in (cfg.n * cfg.R, cfg.n * cfg.R_f):
            if Fraction(prod).denominator != 1:
                raise ValueError(f"rate product {prod} is not an integer")
        if cfg.kind == "lda":
            if cfg.delta_p is None:
                raise ValueError("LDA configs need delta_p")
            threshold = expander.lda_delta_p_threshold(cfg.D, float(cfg.R_f))
            if cfg.delta_p < math.ceil(threshold) and not cfg.allow_below_threshold:
                raise ValueError(
                    f"delta_p = {cfg.delta_p} below threshold {threshold:.3f} "
                    f"(D = {cfg.D}); pass --allow-below-threshold to override"
                )
        for name in ("trials", "threads"):
            if getattr(cfg, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(cfg, name)}")
        if cfg.decoder not in ("exact", "bp"):
            raise ValueError(f"unknown decoder {cfg.decoder!r}")
        if cfg.decoder == "bp" and cfg.kind != "lda":
            raise ValueError("bp decoding needs an LDA pair")
        if cfg.gamma is not None:
            # The realized rate must stay below gamma * capacity at every
            # grid point (the binding one is the smallest SNR).
            realized = cfg.ell * math.log2(cfg.p) / cfg.n
            for snr_db in cfg.snr_db_grid:
                cap = channel.capacity(10.0 ** (snr_db / 10.0))
                if realized > cfg.gamma * cap + 1e-12:
                    raise ValueError(
                        f"rate {realized:.4f} bits/dim exceeds gamma*C = "
                        f"{cfg.gamma * cap:.4f} at {snr_db} dB"
                    )
        return cfg

    @property
    def realized_lambda(self) -> float:
        return math.log(self.p) / math.log(self.n)

    @property
    def ell(self) -> int:
        return int(self.n * (self.R_f - self.R))


def _parse_value(raw: str):
    raw = raw.strip()
    if raw.startswith("[") and raw.endswith("]"):
        raw = raw[1:-1]
        return [_parse_value(t) for t in raw.split(",") if t.strip()]
    if raw.startswith('"') and raw.endswith('"'):
        return raw[1:-1]
    if raw.lower() in ("true", "false"):
        return raw.lower() == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


def load_config_file(path: str) -> dict:
    """Flat key = value lines (a TOML-compatible subset); # starts a comment."""
    out: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {line!r}")
            key, raw = line.split("=", 1)
            out[key.strip()] = _parse_value(raw)
    return out


_CONFIG_KEYS = {
    "n": ("n", int),
    "p": ("p", int),
    "lambda": ("lam", float),
    "R": ("R", Fraction),
    "Rf": ("R_f", Fraction),
    "kind": ("kind", str),
    "delta_p": ("delta_p", int),
    "D": ("D", float),
    "snr_db": ("snr_db_grid", None),
    "gamma": ("gamma", float),
    "trials": ("trials", int),
    "decoder": ("decoder", str),
    "bp_iters": ("bp_iters", int),
    "bp_damping": ("bp_damping", float),
    "seed": ("master_seed", int),
    "resample_lattice": ("resample_lattice", bool),
    "allow_below_threshold": ("allow_below_threshold", bool),
    "threads": ("threads", int),
    "quantizer_budget": ("quantizer_budget", int),
    "enumeration_budget": ("enumeration_budget", int),
    "goodness_budget": ("goodness_budget", int),
}


def config_from_mapping(mapping: dict) -> ExperimentConfig:
    kwargs = {}
    for key, value in mapping.items():
        if key not in _CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r}")
        attr, conv = _CONFIG_KEYS[key]
        if key == "snr_db":
            if isinstance(value, (int, float)):
                value = [value]
            kwargs[attr] = [float(v) for v in value]
        elif conv is Fraction:
            kwargs[attr] = Fraction(str(value))
        elif conv is bool:
            if not isinstance(value, bool):
                raise ValueError(f"config key {key!r} needs true or false, got {value!r}")
            kwargs[attr] = value
        elif conv is int:
            if isinstance(value, float) and value.is_integer():
                value = int(value)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"config key {key!r} needs an integer, got {value!r}")
            kwargs[attr] = value
        else:
            kwargs[attr] = conv(value)
    return ExperimentConfig(**kwargs)


# ---------------------------------------------------------------------------
# Monte Carlo runner


@dataclass(frozen=True)
class TrialRecord:
    trial_index: int
    message_digest: str
    sent_norm: float
    noise_seed: int
    symbol_error_count: int
    word_error: bool
    decoder_status: str  # verified | unverified


@dataclass(frozen=True)
class SnrResult:
    snr_db: float
    config: ExperimentConfig
    symbol_errors: int
    word_errors: int
    records: tuple[TrialRecord, ...]
    mean_power: float

    @property
    def trials(self) -> int:
        return len(self.records)

    @property
    def ser(self) -> float:
        return self.symbol_errors / (self.trials * self.config.ell)

    @property
    def wer(self) -> float:
        return self.word_errors / self.trials


def wilson_interval(k: int, n: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval; well-behaved at k = 0."""
    if n == 0:
        return 0.0, 1.0
    phat = k / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _pair_for_trial(cfg: ExperimentConfig, trial: int) -> codec.NestedLatticePair:
    tag = trial if cfg.resample_lattice else "fixed"
    return codec.build_pair(
        cfg.n, cfg.p, cfg.R, cfg.R_f, cfg.kind,
        seed=rng.derive_key(cfg.master_seed, "ensemble", tag),
        delta_p=cfg.delta_p,
    )


def _run_trial(cfg: ExperimentConfig, trial: int,
               fixed_pair: codec.NestedLatticePair | None) -> tuple[list[TrialRecord], float]:
    """One trial at every grid point: the pair, message and sent point do
    not depend on the SNR, so they are drawn and encoded once; only the
    noise is drawn per grid point.  Returns one record per grid point, in
    grid order, and the realized power of the sent point."""
    pair = fixed_pair if fixed_pair is not None else _pair_for_trial(cfg, trial)
    P = channel.default_power(cfg.p, cfg.R)
    gen = rng.generator(cfg.master_seed, "message", trial)
    message = gen.integers(0, cfg.p, size=pair.ell, dtype=np.int64)
    x = codec.encode(pair, message, budget=cfg.quantizer_budget).point
    digest = blake2b(message.tobytes(), digest_size=8).hexdigest()
    sent_norm = float(np.linalg.norm(x))
    sent = x.astype(float)
    records = []
    for snr_db in cfg.snr_db_grid:
        sigma2 = P / (10.0 ** (snr_db / 10.0))
        noise_seed = rng.derive_key(cfg.master_seed, "noise", snr_db, trial)
        y = channel.awgn_transmit(sent, math.sqrt(sigma2), noise_seed)
        if cfg.decoder == "exact":
            decoded = codec.mmse_decode_exact(pair, y, P, sigma2, budget=cfg.quantizer_budget)
            status = "verified"
        else:
            result = codec.bp_decode(pair, y, P, sigma2, iters=cfg.bp_iters, damping=cfg.bp_damping)
            decoded = result.message
            status = "verified" if result.verified else "unverified"
        errs = int(np.count_nonzero(decoded != message))
        records.append(TrialRecord(
            trial_index=trial,
            message_digest=digest,
            sent_norm=sent_norm,
            noise_seed=noise_seed,
            symbol_error_count=errs,
            word_error=errs > 0,
            decoder_status=status,
        ))
    return records, float(x @ x) / pair.n


def run_monte_carlo(config: ExperimentConfig) -> list[SnrResult]:
    """One SnrResult per grid point; deterministic in (config, master_seed)
    and independent of the worker count.

    Trials run in the outer loop and the SNR grid in the inner one, so each
    trial's pair and sent point are built once and shared by every grid
    point.  A budget refusal comes from trial 0's own codeword-table size
    check, before that table is built.
    """
    cfg = config.resolve()
    fixed_pair = None if cfg.resample_lattice else _pair_for_trial(cfg, 0)

    def job(t: int):
        return _run_trial(cfg, t, fixed_pair)

    if cfg.threads > 1:
        pool = ThreadPoolExecutor(max_workers=cfg.threads)
        try:
            rows = list(pool.map(job, range(cfg.trials)))
        finally:
            pool.shutdown(cancel_futures=True)
    else:
        rows = [job(t) for t in range(cfg.trials)]
    mean_power = sum(pw for _recs, pw in rows) / len(rows)
    results = []
    for i, snr_db in enumerate(cfg.snr_db_grid):
        records = tuple(recs[i] for recs, _pw in rows)
        results.append(
            SnrResult(
                snr_db=snr_db,
                config=cfg,
                symbol_errors=sum(r.symbol_error_count for r in records),
                word_errors=sum(r.word_error for r in records),
                records=records,
                mean_power=mean_power,
            )
        )
    return results


def emit_csv(results: list[SnrResult], path: str) -> None:
    if not results:
        raise ValueError("no results to emit")
    lines = [CSV_HEADER]
    for res in results:
        cfg = res.config
        lo, hi = wilson_interval(res.word_errors, res.trials)
        lines.append(
            f"{res.snr_db!r},{cfg.n},{cfg.p},{cfg.R},{cfg.R_f},{cfg.kind},{cfg.decoder},"
            f"{res.trials},{res.symbol_errors},{res.word_errors},{res.ser!r},{res.wer!r},"
            f"{lo!r},{hi!r},{cfg.master_seed}"
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def emit_plot_data(results: list[SnrResult], path_prefix: str) -> None:
    """Two-column per-series files mirroring the SER/WER-vs-SNR plot axes."""
    if not results:
        raise ValueError("no results to emit")
    for series in ("ser", "wer"):
        with open(f"{path_prefix}.{series}.dat", "w", encoding="utf-8") as fh:
            for res in results:
                fh.write(f"{res.snr_db!r} {getattr(res, series)!r}\n")


# ---------------------------------------------------------------------------
# Verifier subcommands


@dataclass(frozen=True)
class VerifyReport:
    name: str
    passed: bool
    measured: float
    bound: float
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: measured {self.measured:.6g} vs bound {self.bound:.6g} ({self.detail})"


def verify_noise(n: int = 10_000, sigma: float = 1.0, eps: float = 0.05,
                 trials: int = 10_000, master_seed: int = 0,
                 pass_freq: float = 0.999) -> VerifyReport:
    """Fraction of noise draws with norm inside sigma*sqrt(n)*(1 +/- eps)."""
    lo = sigma * math.sqrt(n) * (1 - eps)
    hi = sigma * math.sqrt(n) * (1 + eps)
    inside = 0
    for t in range(trials):
        w = rng.gaussian(master_seed, "verify-noise", t, size=n, sigma=sigma)
        inside += lo <= math.sqrt(float(w @ w)) <= hi
    freq = inside / trials
    return VerifyReport(
        name="typical-noise-norm",
        passed=freq >= pass_freq,
        measured=freq,
        bound=pass_freq,
        detail=f"n={n} eps={eps} trials={trials}",
    )


def verify_ortho(n: int = 10_000, sigma: float = 1.0, trials: int = 10_000,
                 master_seed: int = 0) -> VerifyReport:
    """Violation rate of |x.w| <= f(n) sigma ||x|| with f(n) = ln n, against
    the Chernoff level exp(-f^2/2) plus 3-sigma estimator slack."""
    f = math.log(n)
    x = rng.gaussian(master_seed, "verify-ortho-x", size=n)
    xnorm = math.sqrt(float(x @ x))
    violations = 0
    for t in range(trials):
        w = rng.gaussian(master_seed, "verify-ortho", t, size=n, sigma=sigma)
        if abs(float(x @ w)) > f * sigma * xnorm:
            violations += 1
    bound = math.exp(-f * f / 2.0)
    slack = 3.0 * math.sqrt(bound * (1.0 - bound) / trials)
    rate = violations / trials
    return VerifyReport(
        name="orthogonal-noise",
        passed=rate <= bound + slack,
        measured=rate,
        bound=bound + slack,
        detail=f"f(n)=ln n={f:.3f}, chernoff={bound:.3g}",
    )


def verify_norm(kind: str = "dense", n: int = 16, p: int = 3,
                R: Fraction = Fraction(1, 2), R_f: Fraction = Fraction(3, 4),
                delta_p: int | None = None, count: int = 500, master_seed: int = 0,
                window: tuple[float, float] = (0.7, 1.1),
                threshold: float = 0.9) -> VerifyReport:
    """Fraction of encoded points with norm within the window around the
    exact effective radius of the shaping lattice."""
    inside = 0
    for t in range(count):
        pair = codec.build_pair(n, p, R, R_f, kind,
                                seed=rng.derive_key(master_seed, "norm-pair", t),
                                delta_p=delta_p)
        gen = rng.generator(master_seed, "norm-msg", t)
        message = gen.integers(0, p, size=pair.ell, dtype=np.int64)
        while not message.any():
            message = gen.integers(0, p, size=pair.ell, dtype=np.int64)
        x = codec.encode(pair, message).point
        ratio = float(np.linalg.norm(x)) / pair.shaping.effective_radius()
        inside += window[0] <= ratio <= window[1]
    freq = inside / count
    return VerifyReport(
        name="constellation-norm",
        passed=freq >= threshold,
        measured=freq,
        bound=threshold,
        detail=f"{kind} n={n} p={p} window={window}",
    )


def planted_counterexample() -> expander.TannerGraph:
    """f = 1 graph in which two left nodes share one single neighbor, so
    S = that pair violates 2-goodness: |N(S)| = 1 < f*D*|S| = 4."""
    n = 8
    pairs = [(0, 0), (1, 0)]
    for v in range(2, n):
        pairs += [(v, v % n), (v, (v + 1) % n), (v, (v + 3) % n)]
    return expander.TannerGraph.from_edges(n, n, pairs)


def verify_expansion(n_left: int = 200, f: Fraction = Fraction(1, 4), D: float = 2.0,
                     delta: int | None = None, graphs: int = 100,
                     budget: int = 100_000, master_seed: int = 0,
                     required_clean: int = 95) -> VerifyReport:
    """Randomized falsifier on seeded permutation graphs with degree above
    the threshold; also demands that the falsifier catches a planted
    violation, so a toothless checker cannot pass vacuously."""
    if delta is None:
        base = expander.delta_threshold_two_sided(D, float(f))
        delta = math.ceil(base)
        while (Fraction(delta) * f).denominator != 1:  # biregularity needs f*delta integral
            delta += 1
    clean = 0
    margin = math.inf  # smallest |N(S)| / (required factor * |S|) on a clean graph
    for g in range(graphs):
        graph = expander.build_graph(n_left, f, delta,
                                     seed=rng.derive_key(master_seed, "expansion", g))
        verdict = expander.check_d_good(graph, D, "both", "randomized", budget,
                                        seed=rng.derive_key(master_seed, "check", g))
        if not verdict.found_violation:
            clean += 1
            margin = min(margin, verdict.min_expansion_ratio)
    planted = expander.check_d_good(planted_counterexample(), 2.0, "left_to_right",
                                    "randomized", budget=10_000, seed=master_seed)
    caught = planted.found_violation
    return VerifyReport(
        name="d-goodness",
        passed=clean >= required_clean and caught,
        measured=float(clean),
        bound=float(required_clean),
        detail=f"delta={delta} D={D} f={f} min-clean-expansion-ratio={margin:.4f} "
               f"planted-violation-caught={caught}",
    )


def verify_mindist(codes: int = 50, n: int = 30, p: int = 31,
                   R_f: Fraction = Fraction(3, 5), delta_p: int = 5,
                   w_max: int = 4, master_seed: int = 0) -> VerifyReport:
    """Bounded-weight codeword search over seeded LDA fine codes; passes only
    when no code contains a nonzero codeword of weight <= w_max."""
    offenders = 0
    found: list[tuple[int, int]] = []
    for c in range(codes):
        lat, _graph = codec.build_fine_lattice(n, p, R_f, delta_p,
                                               seed=rng.derive_key(master_seed, "mindist", c))
        w = lat.min_hamming_weight(w_max)
        if w is not None:
            offenders += 1
            found.append((c, w))
    return VerifyReport(
        name="min-hamming-distance",
        passed=offenders == 0,
        measured=float(offenders),
        bound=0.0,
        detail=f"codes={codes} w_max={w_max} offenders={found[:8]}{'...' if len(found) > 8 else ''}",
    )


def verify_counts(cases: int = 100, master_seed: int = 0) -> VerifyReport:
    """Exhaustive geometry counts against their closed-form bounds, plus
    quantizer-vs-enumeration CVP cross-checks."""
    gen = rng.generator(master_seed, "counts")
    violations = 0
    # Integer points in a sphere against the two-sided volume bound.
    for _ in range(cases):
        dim = int(gen.integers(1, 5))
        rho = float(gen.uniform(2.0, 8.0 if dim <= 3 else 5.0))
        center = gen.uniform(-3, 3, size=dim)
        ball = BallSpec(center, rho, dim)
        lo, hi = lemma2_bounds(ball)
        cnt = count_integer_points(ball)
        violations += not (lo <= cnt <= hi)
    # Congruence classes inside a ball.
    for _ in range(cases):
        dim = int(gen.integers(1, 4))
        p = int(gen.choice([3, 5, 7]))
        rho = float(gen.uniform(2.0, 6.0))
        center = gen.uniform(-2, 2, size=dim)
        ball = BallSpec(center, rho, dim)
        x = gen.integers(-5, 6, size=dim)
        mu = int(gen.integers(0, p))
        cnt = count_congruent_in_ball(x, mu, ball, p)
        violations += not (cnt <= lemmaC_bound(ball, p))
    # Quantizer vs brute force.
    for i in range(cases):
        dim = int(gen.integers(3, 6))
        p = 3 if dim >= 5 else int(gen.choice([3, 5]))
        rows = int(gen.integers(1, dim))
        H = GfMatrix.random(rows, dim, p, rng.generator(master_seed, "cvp-H", i))
        lat = ConstructionALattice(H)
        y = gen.uniform(-p, p, size=dim)
        if not np.array_equal(lat.quantize(y), lat.closest_point_bruteforce(y)):
            violations += 1
    # Cross-dimension count ratios against the asymptotic bound; the slack
    # factor is reported rather than assumed tight.
    min_slack = math.inf
    for n in (4, 6):
        for m in range(0, n // 2 + 1):
            for rho in (0.6 * n, 1.0 * n):
                exact, bound = volume_ratio_check(n, m, rho)
                min_slack = min(min_slack, bound / exact)
                violations += not exact <= bound
    return VerifyReport(
        name="geometry-counts",
        passed=violations == 0,
        measured=float(violations),
        bound=0.0,
        detail=f"{cases} cases per family; min volume-ratio slack {min_slack:.2f}",
    )


# ---------------------------------------------------------------------------
# Command-line interface


def _true_or_false(text: str) -> bool:
    if text.lower() not in ("true", "false"):
        raise argparse.ArgumentTypeError(f"expected true or false, got {text!r}")
    return text.lower() == "true"


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat key=value config file")
    sub.add_argument("--seed", type=int, help="master seed")
    sub.add_argument("--out", help="output path")
    sub.add_argument("--trials", type=int)
    sub.add_argument("--snr-db", help="comma-separated SNR grid in dB")
    sub.add_argument("--decoder", choices=["exact", "bp"])
    sub.add_argument("--allow-below-threshold", action="store_true", default=None)
    sub.add_argument("--resample-lattice", type=_true_or_false, default=None)
    sub.add_argument("--threads", type=int)


def _merged_config(args: argparse.Namespace) -> ExperimentConfig:
    mapping = load_config_file(args.config) if args.config else {}
    if args.seed is not None:
        mapping["seed"] = args.seed
    if args.trials is not None:
        mapping["trials"] = args.trials
    if args.snr_db is not None:
        mapping["snr_db"] = [float(t) for t in str(args.snr_db).split(",")]
    if args.decoder is not None:
        mapping["decoder"] = args.decoder
    if args.allow_below_threshold:
        mapping["allow_below_threshold"] = True
    if args.resample_lattice is not None:
        mapping["resample_lattice"] = args.resample_lattice
    threads = args.threads
    if threads is None and os.environ.get("LDA_LAB_THREADS"):
        threads = int(os.environ["LDA_LAB_THREADS"])
    if threads is not None:
        mapping["threads"] = threads
    if "n" not in mapping:
        raise ValueError("a config file providing at least n is required (--config PATH)")
    return config_from_mapping(mapping)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="lda-lab",
                                     description="nested-lattice coding laboratory")
    subs = parser.add_subparsers(dest="command", required=True)

    for name in ("simulate", "gen"):
        sp = subs.add_parser(name)
        _add_common(sp)

    sp = subs.add_parser("encode")
    sp.add_argument("--pair", required=True)
    sp.add_argument("--message", required=True, help="comma-separated GF(p) symbols")
    sp = subs.add_parser("decode")
    sp.add_argument("--pair", required=True)
    sp.add_argument("--y", required=True, help="comma-separated channel output")
    sp.add_argument("--snr-db", type=float, required=True)
    sp.add_argument("--decoder", choices=["exact", "bp"], default="exact")

    sp = subs.add_parser("verify-noise")
    sp.add_argument("--n", type=int, default=10_000)
    sp.add_argument("--sigma", type=float, default=1.0)
    sp.add_argument("--eps", type=float, default=0.05)
    sp.add_argument("--trials", type=int, default=10_000)
    sp.add_argument("--seed", type=int, default=0)

    sp = subs.add_parser("verify-ortho")
    sp.add_argument("--n", type=int, default=10_000)
    sp.add_argument("--sigma", type=float, default=1.0)
    sp.add_argument("--trials", type=int, default=10_000)
    sp.add_argument("--seed", type=int, default=0)

    sp = subs.add_parser("verify-norm")
    sp.add_argument("--kind", choices=["dense", "lda"], default="dense")
    sp.add_argument("--n", type=int, default=16)
    sp.add_argument("--p", type=int, default=3)
    sp.add_argument("--R", default="1/2")
    sp.add_argument("--Rf", default="3/4")
    sp.add_argument("--delta-p", type=int, default=None)
    sp.add_argument("--count", type=int, default=500)
    sp.add_argument("--seed", type=int, default=0)

    sp = subs.add_parser("verify-expansion")
    sp.add_argument("--n-left", type=int, default=200)
    sp.add_argument("--f", default="1/4")
    sp.add_argument("--D", type=float, default=2.0)
    sp.add_argument("--delta", type=int, default=None)
    sp.add_argument("--graphs", type=int, default=100)
    sp.add_argument("--budget", type=int, default=100_000)
    sp.add_argument("--seed", type=int, default=0)

    sp = subs.add_parser("verify-mindist")
    sp.add_argument("--codes", type=int, default=50)
    sp.add_argument("--n", type=int, default=30)
    sp.add_argument("--p", type=int, default=31)
    sp.add_argument("--Rf", default="3/5")
    sp.add_argument("--delta-p", type=int, default=5)
    sp.add_argument("--w-max", type=int, default=4)
    sp.add_argument("--seed", type=int, default=0)

    sp = subs.add_parser("verify-counts")
    sp.add_argument("--cases", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)

    sp = subs.add_parser("thresholds")
    sp.add_argument("--D", type=float, required=True)
    sp.add_argument("--f", default=None, help="right/left ratio for the generic family")
    sp.add_argument("--Rf", default=None, help="fine rate for the LDA family")

    args = parser.parse_args(argv)

    if args.command == "simulate":
        try:
            cfg = _merged_config(args)
            results = run_monte_carlo(cfg)
        except (BudgetExceededError, ValueError) as exc:
            print(f"refused: {exc}", file=sys.stderr)
            return 2
        out = args.out or "results.csv"
        emit_csv(results, out)
        emit_plot_data(results, out.removesuffix(".csv"))
        cfg = results[0].config
        flags = " allow_below_threshold" if cfg.allow_below_threshold else ""
        print(f"wrote {out} (n={cfg.n} p={cfg.p} lambda={cfg.realized_lambda:.4f} "
              f"kind={cfg.kind} decoder={cfg.decoder} mean_power={results[0].mean_power:.4f}{flags})")
        return 0

    if args.command == "gen":
        try:
            cfg = _merged_config(args).resolve()
            pair = _pair_for_trial(cfg, 0)
        except (BudgetExceededError, ValueError) as exc:
            print(f"refused: {exc}", file=sys.stderr)
            return 2
        out = args.out or "pair.txt"
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(codec.pair_to_text(pair))
        print(f"wrote {out} (regenerations={pair.regenerations})")
        return 0

    if args.command in ("encode", "decode"):
        try:
            with open(args.pair, encoding="utf-8") as fh:
                pair = codec.pair_from_text(fh.read())
            if args.command == "encode":
                message = np.array([int(t) for t in args.message.split(",")], dtype=np.int64)
                out = codec.encode(pair, message).point
            else:
                y = np.array([float(t) for t in args.y.split(",")])
                P = channel.default_power(pair.p, pair.R)
                sigma2 = P / (10.0 ** (args.snr_db / 10.0))
                if args.decoder == "exact":
                    out = codec.mmse_decode_exact(pair, y, P, sigma2)
                else:
                    out = codec.bp_decode(pair, y, P, sigma2).message
        except (BudgetExceededError, ValueError) as exc:
            print(f"refused: {exc}", file=sys.stderr)
            return 2
        print(",".join(str(int(v)) for v in out))
        return 0

    try:
        if args.command == "verify-noise":
            report = verify_noise(args.n, args.sigma, args.eps, args.trials, args.seed)
        elif args.command == "verify-ortho":
            report = verify_ortho(args.n, args.sigma, args.trials, args.seed)
        elif args.command == "verify-norm":
            report = verify_norm(args.kind, args.n, args.p, Fraction(args.R), Fraction(args.Rf),
                                 args.delta_p, args.count, args.seed)
        elif args.command == "verify-expansion":
            report = verify_expansion(args.n_left, Fraction(args.f), args.D, args.delta,
                                      args.graphs, args.budget, args.seed)
        elif args.command == "verify-mindist":
            report = verify_mindist(args.codes, args.n, args.p, Fraction(args.Rf),
                                    args.delta_p, args.w_max, args.seed)
        elif args.command == "verify-counts":
            report = verify_counts(args.cases, args.seed)
        elif args.command == "thresholds":
            if args.f is not None:
                f = float(Fraction(args.f))
                print(f"delta_threshold(D={args.D}, f={args.f}) = {expander.delta_threshold(args.D, f)!r}")
                print(f"delta_threshold_two_sided = {expander.delta_threshold_two_sided(args.D, f)!r}")
            if args.Rf is not None:
                rf = float(Fraction(args.Rf))
                print(f"lda_delta_p_threshold(D={args.D}, Rf={args.Rf}) = {expander.lda_delta_p_threshold(args.D, rf)!r}")
            return 0
        else:  # pragma: no cover
            parser.error(f"unhandled command {args.command}")
    except (BudgetExceededError, ValueError) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2

    print(report.line())
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
