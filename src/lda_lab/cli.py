"""Experiment runner and verifier subcommands.

Every trial is a pure function of (config, master_seed, trial_index):
message, noise, and ensemble draws come from independently derived
streams, so results are byte-identical across runs.  Trials run in order
on one thread; a pair's points are decoded together once its last trial
is sent.  The ``threads`` key and ``--threads`` flag are accepted and
validated but select nothing.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import dataclass, field, replace
from fractions import Fraction
from hashlib import blake2b

import numpy as np

from . import channel, codec, expander, rng
from .expander import BudgetExceededError
from .fieldcore import nearest_prime
from .gfmatrix import GfMatrix, block_heights
from .lattice import (
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
    trials: int = 100
    decoder: str = "exact"
    bp_iters: int = 50
    master_seed: int = 0
    resample_lattice: bool = True
    allow_below_threshold: bool = False
    threads: int = 1  # validated, selects nothing: trials run in order on one thread
    quantizer_budget: int = DEFAULT_QUANTIZER_BUDGET

    def resolve(self) -> "ExperimentConfig":
        """Pin the prime; validate the rate rule and degree thresholds."""
        cfg = self
        block_heights(cfg.n, cfg.R, cfg.R_f)  # n >= 1, so n**lambda below is real
        if cfg.p is None:
            if cfg.lam is None:
                raise ValueError("config needs p or lambda")
            try:
                target = float(cfg.n) ** cfg.lam
            except OverflowError:
                target = math.inf
            if not math.isfinite(target):
                raise ValueError(f"lambda = {cfg.lam} gives n**lambda = {target} at n = {cfg.n}, "
                                 "not a finite number")
            cfg = replace(cfg, p=nearest_prime(target))
        if cfg.kind == "lda":
            if cfg.delta_p is None:
                raise ValueError("LDA configs need delta_p")
            threshold = expander.lda_delta_p_threshold(cfg.D, float(cfg.R_f))
            if cfg.delta_p < math.ceil(threshold) and not cfg.allow_below_threshold:
                raise ValueError(
                    f"delta_p = {cfg.delta_p} below threshold {threshold:.3f} "
                    f"(D = {cfg.D}); pass --allow-below-threshold to override"
                )
        for name in ("trials", "threads", "bp_iters"):
            if getattr(cfg, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(cfg, name)}")
        if not cfg.snr_db_grid:
            raise ValueError("snr_db must list at least 1 grid point")
        codec._check_ensemble(cfg.p, cfg.kind)  # the power below is complex at p < 0
        P = channel.default_power(cfg.p, cfg.R)
        for snr_db in cfg.snr_db_grid:
            channel.noise_variance(P, snr_db)
        if cfg.decoder not in ("exact", "bp"):
            raise ValueError(f"unknown decoder {cfg.decoder!r}")
        if cfg.decoder == "bp" and cfg.kind != "lda":
            raise ValueError("bp decoding needs an LDA pair")
        return cfg

    @property
    def realized_lambda(self) -> float:
        return math.log(self.p) / math.log(self.n)

    @property
    def ell(self) -> int:
        return block_heights(self.n, self.R, self.R_f)[0]


def _fraction(text) -> Fraction:
    """An exact rational such as "3/4" or 0.25, for rate flags and keys.
    Malformed text and a zero denominator both raise ValueError."""
    try:
        return Fraction(str(text))
    except ZeroDivisionError:
        raise ValueError(f"rate {text!r} has a zero denominator") from None


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
    """Flat key = value lines (a TOML-compatible subset); # starts a comment.
    As in TOML, a key may appear only once."""
    out: dict = {}
    first_line: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {line!r}")
            key, raw = (part.strip() for part in line.split("=", 1))
            if key in first_line:
                raise ValueError(f"config key {key!r} is set twice, on lines {first_line[key]} and {number}")
            first_line[key] = number
            out[key] = _parse_value(raw)
    return out


_CONFIG_KEYS = {
    "n": ("n", int),
    "p": ("p", int),
    "lambda": ("lam", float),
    "R": ("R", _fraction),
    "Rf": ("R_f", _fraction),
    "kind": ("kind", str),
    "delta_p": ("delta_p", int),
    "D": ("D", float),
    "snr_db": ("snr_db_grid", None),
    "trials": ("trials", int),
    "decoder": ("decoder", str),
    "bp_iters": ("bp_iters", int),
    "seed": ("master_seed", int),
    "resample_lattice": ("resample_lattice", bool),
    "allow_below_threshold": ("allow_below_threshold", bool),
    "threads": ("threads", int),
    "quantizer_budget": ("quantizer_budget", int),
}


def config_from_mapping(mapping: dict) -> ExperimentConfig:
    kwargs = {}
    for key, value in mapping.items():
        if key not in _CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r}")
        attr, conv = _CONFIG_KEYS[key]
        if key == "snr_db":
            grid = value if isinstance(value, list) else [value]
            if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in grid):
                raise ValueError(f"config key 'snr_db' needs a number or a list of numbers, got {value!r}")
            kwargs[attr] = [float(v) for v in grid]
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
        elif conv is float and (isinstance(value, bool) or not isinstance(value, (int, float))):
            raise ValueError(f"config key {key!r} needs a number, got {value!r}")
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
    bp_iterations: int | None  # sum-product iterations; None under the exact decoder


@dataclass(frozen=True)
class SnrResult:
    snr_db: float
    config: ExperimentConfig
    records: tuple[TrialRecord, ...]
    mean_power: float

    @property
    def trials(self) -> int:
        return len(self.records)

    @property
    def symbol_errors(self) -> int:
        return sum(r.symbol_error_count for r in self.records)

    @property
    def word_errors(self) -> int:
        return sum(r.word_error for r in self.records)

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


def _decode_trials(cfg: ExperimentConfig, pair: codec.NestedLatticePair, P: float, sigma2s: list[float],
                   sent: list[tuple[int, np.ndarray, np.ndarray]]) -> list[TrialRecord]:
    """The records of the trials sent on one pair, given as (trial, message,
    point) triples: in trial order, and in grid order within a trial.  Each
    point's noise is drawn at every grid point, and the outputs are decoded,
    the exact decoder one by one, the sum-product decoder in one call; each
    decodes as it would alone."""
    points = [(t, message, x, rng.derive_key(cfg.master_seed, "noise", snr_db, t), sigma2)
              for t, message, x in sent for snr_db, sigma2 in zip(cfg.snr_db_grid, sigma2s)]
    ys = [channel.awgn_transmit(x.astype(float), math.sqrt(sigma2), noise_seed)
          for _t, _message, x, noise_seed, sigma2 in points]
    variances = sigma2s * len(sent)
    if cfg.decoder == "exact":
        decoded = [(codec.mmse_decode_exact(pair, y, P, sigma2, budget=cfg.quantizer_budget),
                    "verified", None) for y, sigma2 in zip(ys, variances)]
    else:
        decoded = [(res.message, "verified" if res.verified else "unverified", res.iterations)
                   for res in codec.bp_decode_batch(pair, ys, P, variances, iters=cfg.bp_iters)]
    records = []
    for (t, message, x, noise_seed, _sigma2), (estimate, status, iterations) in zip(points, decoded):
        errs = int(np.count_nonzero(estimate != message))
        records.append(TrialRecord(
            t, blake2b(message.tobytes(), digest_size=8).hexdigest(), float(np.linalg.norm(x)),
            noise_seed, errs, errs > 0, status, iterations))
    return records


def run_monte_carlo(config: ExperimentConfig) -> list[SnrResult]:
    """One SnrResult per grid point; deterministic in (config, master_seed).

    Each trial draws its pair (or takes the fixed one) and its message and
    encodes once: the sent point does not depend on the SNR.  A pair's
    points are decoded together when its last trial is sent: after every
    trial with resampled pairs, after the last trial with one fixed pair.
    Each point decodes as it would alone, so this schedule changes no
    result.  A budget refusal comes from the first quantizer search that
    visits more than ``quantizer_budget`` nodes; no file is written.
    """
    cfg = config.resolve()
    P = channel.default_power(cfg.p, cfg.R)
    sigma2s = [channel.noise_variance(P, snr_db) for snr_db in cfg.snr_db_grid]
    fixed_pair = None if cfg.resample_lattice else _pair_for_trial(cfg, 0)
    records: list[TrialRecord] = []
    powers, sent = [], []
    for t in range(cfg.trials):
        pair = fixed_pair if fixed_pair is not None else _pair_for_trial(cfg, t)
        message = rng.generator(cfg.master_seed, "message", t).integers(
            0, cfg.p, size=pair.ell, dtype=np.int64)
        x = codec.encode(pair, message, budget=cfg.quantizer_budget).point
        powers.append(float(x @ x) / pair.n)
        sent.append((t, message, x))
        if fixed_pair is None or t == cfg.trials - 1:
            records += _decode_trials(cfg, pair, P, sigma2s, sent)
            sent = []
    mean_power = sum(powers) / len(powers)
    return [SnrResult(snr_db, cfg, tuple(records[i::len(sigma2s)]), mean_power)
            for i, snr_db in enumerate(cfg.snr_db_grid)]


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


def _require(least: float, strict: bool = False, **values: float) -> None:
    """Refuse a verifier run that would check nothing, or divide by zero:
    every value must be at least ``least`` (above it when ``strict``)."""
    for name, value in values.items():
        if not (value > least if strict else value >= least):
            raise ValueError(f"{name} = {value} must be {'above' if strict else 'at least'} {least}")


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
    _require(1, n=n, trials=trials)
    _require(0, strict=True, sigma=sigma)
    if not 0 < eps < 1:  # at eps >= 1 the window checks nothing; at eps <= 0 it is empty
        raise ValueError(f"eps = {eps} must be inside (0, 1)")
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
    the Chernoff level exp(-f^2/2) plus 3-sigma estimator slack.  At n = 1,
    f = 0 puts the level at 1, so n starts at 2."""
    _require(2, n=n)
    _require(1, trials=trials)
    _require(0, strict=True, sigma=sigma)
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
                delta_p: int | None = None, count: int = 500,
                master_seed: int = 0) -> VerifyReport:
    """Fraction of encoded points with norm within the window around the
    exact effective radius of the shaping lattice; at least 0.9 passes."""
    _require(1, count=count)
    window, threshold = (0.7, 1.1), 0.9
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
                     required_clean: int | None = None) -> VerifyReport:
    """Randomized falsifier on seeded permutation graphs with degree above
    the threshold; also demands that the falsifier catches a planted
    violation, so a toothless checker cannot pass vacuously.  Without
    ``required_clean``, 95% of the graphs, rounded up, must be clean."""
    _require(1, graphs=graphs)
    if required_clean is None:
        required_clean = (95 * graphs + 99) // 100
    if delta is None:
        base = expander.delta_threshold_two_sided(D, float(f))
        delta = math.ceil(base)
        while (Fraction(delta) * f).denominator != 1:  # biregularity needs f*delta integral
            delta += 1
    expander.refuse_oversized_check(n_left, math.ceil(n_left * f))  # before any graph is built
    clean = 0
    margin = math.inf  # smallest |N(S)| / (required factor * |S|) on a clean graph
    for g in range(graphs):
        graph = expander.build_graph(n_left, f, delta,
                                     seed=rng.derive_key(master_seed, "expansion", g))
        verdict = expander.check_d_good(graph, D, "both", budget,
                                        seed=rng.derive_key(master_seed, "check", g))
        if not verdict.found_violation:
            clean += 1
            margin = min(margin, verdict.min_expansion_ratio)
    planted = expander.check_d_good(planted_counterexample(), 2.0, "left_to_right",
                                    budget=10_000, seed=master_seed)
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
    _require(1, codes=codes)
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
    _require(1, cases=cases)
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


def _grid(text: str) -> list[float]:
    return [float(t) for t in text.split(",")]


def _merged_config(path: str | None, keys: dict) -> ExperimentConfig:
    """The config file's keys, overridden by the flags given."""
    mapping = load_config_file(path) if path else {}
    mapping.update(keys)
    if "n" not in mapping:
        raise ValueError("a config file providing at least n is required (--config PATH)")
    return config_from_mapping(mapping)


def _simulate(config: str | None = None, out: str | None = None, **keys) -> int:
    out = out or "results.csv"
    folder = os.path.dirname(out) or "."
    # Both checked before any trial runs.
    if not os.path.isdir(folder):
        raise FileNotFoundError(f"no directory {folder!r} to write {out!r} in")
    if os.path.isdir(out):
        raise IsADirectoryError(f"output path {out!r} is a directory")
    results = run_monte_carlo(_merged_config(config, keys))
    emit_csv(results, out)
    emit_plot_data(results, out.removesuffix(".csv"))
    cfg = results[0].config
    flags = " allow_below_threshold" if cfg.allow_below_threshold else ""
    print(f"wrote {out} (n={cfg.n} p={cfg.p} lambda={cfg.realized_lambda:.4f} "
          f"kind={cfg.kind} decoder={cfg.decoder} mean_power={results[0].mean_power:.4f}{flags})")
    return 0


def _gen(config: str | None = None, out: str | None = None, **keys) -> int:
    pair = _pair_for_trial(_merged_config(config, keys).resolve(), 0)
    out = out or "pair.txt"
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(codec.pair_to_text(pair))
    print(f"wrote {out} (regenerations={pair.regenerations})")
    return 0


def _read_pair(path: str) -> codec.NestedLatticePair:
    with open(path, encoding="utf-8") as fh:
        return codec.pair_from_text(fh.read())


def _print_symbols(values: np.ndarray) -> int:
    print(",".join(str(int(v)) for v in values))
    return 0


def _encode(pair: str, message: str) -> int:
    lattices = _read_pair(pair)
    symbols = [int(t) for t in message.split(",")]
    for s in symbols:
        if not -2**63 <= s < 2**63:
            raise ValueError(f"--message symbol {s} does not fit in int64")
    return _print_symbols(codec.encode(lattices, symbols).point)


def _decode(pair: str, y: str, snr_db: float, decoder: str = "exact") -> int:
    lattices = _read_pair(pair)
    samples = np.array([float(t) for t in y.split(",")])
    P = channel.default_power(lattices.p, lattices.R)
    sigma2 = channel.noise_variance(P, snr_db)
    if decoder == "exact":
        return _print_symbols(codec.mmse_decode_exact(lattices, samples, P, sigma2))
    return _print_symbols(codec.bp_decode(lattices, samples, P, sigma2).message)


def _thresholds(D: float, f: str | None = None, Rf: str | None = None) -> int:
    if f is not None:
        ratio = float(_fraction(f))
        print(f"delta_threshold(D={D}, f={f}) = {expander.delta_threshold(D, ratio)!r}")
        print(f"delta_threshold_two_sided = {expander.delta_threshold_two_sided(D, ratio)!r}")
    if Rf is not None:
        rf = float(_fraction(Rf))
        print(f"lda_delta_p_threshold(D={D}, Rf={Rf}) = {expander.lda_delta_p_threshold(D, rf)!r}")
    return 0


def _verdict(report: VerifyReport) -> int:
    print(report.line())
    return 0 if report.passed else 1


# Each subcommand's handler and flags, as (option string, add_argument
# keywords).  A flag's dest is the config key or the handler parameter it
# sets; an omitted flag leaves the key or the parameter's default alone.
# The verifier handlers look the verifiers up at call time, so a wrapper
# put on the module attribute (the benchmark's tracer) sees the call.
_RUN_FLAGS = [
    ("--config", {"help": "flat key=value config file"}),
    ("--seed", {"type": int, "help": "master seed"}),
    ("--out", {"help": "output path"}),
    ("--trials", {"type": int}),
    ("--snr-db", {"type": _grid, "help": "comma-separated SNR grid in dB"}),
    ("--decoder", {"choices": ["exact", "bp"]}),
    ("--allow-below-threshold", {"action": "store_true"}),
    ("--resample-lattice", {"type": _true_or_false}),
    ("--threads", {"type": int}),
]
_PAIR = ("--pair", {"required": True})
_SEED = ("--seed", {"dest": "master_seed", "type": int, "metavar": "SEED"})
_N = ("--n", {"type": int})
_P = ("--p", {"type": int})
_SIGMA = ("--sigma", {"type": float})
_TRIALS = ("--trials", {"type": int})
_RF = ("--Rf", {"dest": "R_f", "type": _fraction, "metavar": "RF"})
_DELTA_P = ("--delta-p", {"type": int})

COMMANDS = {
    "simulate": (_simulate, _RUN_FLAGS),
    "gen": (_gen, _RUN_FLAGS),
    "encode": (_encode, [_PAIR, ("--message", {"required": True,
                                               "help": "comma-separated GF(p) symbols"})]),
    "decode": (_decode, [_PAIR, ("--y", {"required": True, "help": "comma-separated channel output"}),
                         ("--snr-db", {"type": float, "required": True}),
                         ("--decoder", {"choices": ["exact", "bp"]})]),
    "verify-noise": (lambda **kw: _verdict(verify_noise(**kw)),
                     [_N, _SIGMA, ("--eps", {"type": float}), _TRIALS, _SEED]),
    "verify-ortho": (lambda **kw: _verdict(verify_ortho(**kw)), [_N, _SIGMA, _TRIALS, _SEED]),
    "verify-norm": (lambda **kw: _verdict(verify_norm(**kw)),
                    [("--kind", {"choices": ["dense", "lda"]}), _N, _P, ("--R", {"type": _fraction}),
                     _RF, _DELTA_P, ("--count", {"type": int}), _SEED]),
    "verify-expansion": (lambda **kw: _verdict(verify_expansion(**kw)),
                         [("--n-left", {"type": int}), ("--f", {"type": _fraction}),
                          ("--D", {"type": float}), ("--delta", {"type": int}),
                          ("--graphs", {"type": int}), ("--budget", {"type": int}), _SEED]),
    "verify-mindist": (lambda **kw: _verdict(verify_mindist(**kw)),
                       [("--codes", {"type": int}), _N, _P, _RF, _DELTA_P,
                        ("--w-max", {"type": int}), _SEED]),
    "verify-counts": (lambda **kw: _verdict(verify_counts(**kw)),
                      [("--cases", {"type": int}), _SEED]),
    "thresholds": (_thresholds, [("--D", {"type": float, "required": True}),
                                 ("--f", {"help": "right/left ratio for the generic family"}),
                                 ("--Rf", {"help": "fine rate for the LDA family"})]),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process."""
    parser = argparse.ArgumentParser(prog="lda-lab", description="nested-lattice coding laboratory")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (_handler, flags) in COMMANDS.items():
        sub = subs.add_parser(name, argument_default=argparse.SUPPRESS)
        for option, settings in flags:
            sub.add_argument(option, **settings)
    return parser


def main(argv: list[str] | None = None) -> int:
    kwargs = vars(_parser().parse_args(argv))
    handler, _flags = COMMANDS[kwargs.pop("command")]
    try:
        return handler(**kwargs)
    except (BudgetExceededError, ValueError, OSError) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
