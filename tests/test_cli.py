"""Runner determinism, CSV contract, config handling, verify commands."""

from __future__ import annotations

import ast
import contextlib
import dataclasses
import inspect
import io
import math
import os
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from lda_lab import channel, cli, codec, rng
from lda_lab.expander import BudgetExceededError
from lda_lab.cli import (
    CSV_HEADER,
    ExperimentConfig,
    VerifyReport,
    config_from_mapping,
    emit_csv,
    emit_plot_data,
    load_config_file,
    main,
    run_monte_carlo,
    verify_counts,
    verify_expansion,
    verify_mindist,
    verify_noise,
    verify_norm,
    verify_ortho,
    wilson_interval,
)


def write_config(tmp_path, **overrides):
    base = {
        "n": 8,
        "p": 5,
        "R": '"1/4"',
        "Rf": '"3/4"',
        "kind": '"dense"',
        "snr_db": "[8.0, 12.0]",
        "trials": 30,
        "decoder": '"exact"',
        "seed": 42,
    }
    base.update(overrides)
    path = tmp_path / "cfg.toml"
    path.write_text("\n".join(f"{k} = {v}" for k, v in base.items()) + "\n")
    return str(path)


def test_config_file_parsing(tmp_path):
    path = write_config(tmp_path, threads=4)
    mapping = load_config_file(path)
    cfg = config_from_mapping(mapping)
    assert cfg.n == 8 and cfg.p == 5
    assert cfg.R == Fraction(1, 4) and cfg.R_f == Fraction(3, 4)
    assert cfg.snr_db_grid == [8.0, 12.0]
    assert cfg.threads == 4


def test_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.toml"
    path.write_text("frobnicate = 3\n")
    with pytest.raises(ValueError):
        config_from_mapping(load_config_file(path))


def test_config_lambda_resolves_prime():
    cfg = ExperimentConfig(n=64, lam=1.2).resolve()
    assert cfg.p == 149
    assert cfg.realized_lambda == math.log(149) / math.log(64)


def test_config_rates_must_keep_the_rate_rule(monkeypatch):
    # Refused before trial 0 draws a pair with a negative block height.
    def no_pair(*args, **kwargs):
        raise AssertionError("a pair was built")

    monkeypatch.setattr(codec, "build_pair", no_pair)
    cfg = config_from_mapping({"n": 8, "p": 5, "R": "1/2", "Rf": "1/4"})
    for call in (cfg.resolve, lambda: run_monte_carlo(cfg)):
        with pytest.raises(ValueError, match="rates R = 1/2, R_f = 1/4 break 0 < R < R_f < 1"):
            call()


def test_config_lda_threshold_guard():
    cfg = ExperimentConfig(n=12, p=7, R=Fraction(1, 4), R_f=Fraction(1, 2),
                           kind="lda", delta_p=4, D=2.0)
    with pytest.raises(ValueError):
        cfg.resolve()
    ok = ExperimentConfig(n=12, p=7, R=Fraction(1, 4), R_f=Fraction(1, 2),
                          kind="lda", delta_p=4, D=2.0, allow_below_threshold=True)
    ok.resolve()


@pytest.mark.parametrize("key, value", [
    ("trials", 0), ("trials", -1), ("threads", 0), ("threads", -3),
    ("bp_iters", 0), ("snr_db", []),
])
def test_config_rejects_non_positive_counts(tmp_path, key, value):
    attr = {"snr_db": "snr_db_grid"}.get(key, key)
    cfg = ExperimentConfig(n=8, p=5, R=Fraction(1, 4), R_f=Fraction(3, 4), **{attr: value})
    with pytest.raises(ValueError, match=f"{key} must (be|list) at least 1"):
        cfg.resolve()
    out = tmp_path / "x.csv"
    cfgpath = write_config(tmp_path, **{key: value})
    assert main(["simulate", "--config", cfgpath, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("key", ["bp_damping", "enumeration_budget", "goodness_budget", "gamma"])
def test_config_refuses_deleted_keys(tmp_path, key):
    path = write_config(tmp_path, **{key: 1})
    with pytest.raises(ValueError, match=f"unknown config key '{key}'"):
        config_from_mapping(load_config_file(path))
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "x.csv")]) == 2


def test_thread_count_comes_only_from_the_flag_or_the_key(tmp_path, monkeypatch):
    # The environment is not a third source: a zero there would be refused.
    monkeypatch.setenv("LDA_LAB_THREADS", "0")
    path = write_config(tmp_path, trials=2)
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "x.csv")]) == 0


@pytest.mark.parametrize("key, raw", [
    ("resample_lattice", '"false"'),  # a quoted string is not a boolean
    ("allow_below_threshold", "1"),
    ("trials", "2.7"),
    ("seed", "1.5"),
    ("threads", "true"),
    ("trials", "inf"),
    ("snr_db", '"10"'),  # not the grid [1.0, 0.0] of the string's characters
    ("snr_db", "true"),
    ("snr_db", '["4", "8"]'),
    ("lambda", "true"),
    ("D", "false"),
    ("lambda", "[]"),
    ("D", '"2"'),
])
def test_config_refuses_loose_values(tmp_path, key, raw):
    path = write_config(tmp_path, **{key: raw})
    with pytest.raises(ValueError, match=f"config key {key!r} needs"):
        config_from_mapping(load_config_file(path))
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "x.csv")]) == 2


def test_config_refuses_a_repeated_key(tmp_path, capsys):
    # TOML forbids a repeated key; the last line must not win silently.
    path = write_config(tmp_path, trials=3)
    with open(path, "a") as fh:
        fh.write("trials = 5\n")
    out = tmp_path / "x.csv"
    assert main(["simulate", "--config", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "refused: config key 'trials' is set twice, on lines 7 and 10\n"
    assert not out.exists()


@pytest.mark.parametrize("n, lam, reason", [
    (-8, "1.2", "n = -8 must be at least 1"),  # (-8.0) ** 1.2 is complex
    (12, "inf", "lambda = inf gives n**lambda = inf at n = 12, not a finite number"),
    (12, "1e300", "lambda = 1e+300 gives n**lambda = inf at n = 12, not a finite number"),
    (12, "nan", "lambda = nan gives n**lambda = nan at n = 12, not a finite number"),
])
@pytest.mark.parametrize("command", ["simulate", "gen"])
def test_cli_refuses_a_lambda_with_no_finite_power(tmp_path, capsys, command, n, lam, reason):
    path = tmp_path / "cfg.toml"
    path.write_text(f'n = {n}\nlambda = {lam}\nR = "1/4"\nRf = "1/2"\ntrials = 2\n')
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out.txt")]) == 2
    assert capsys.readouterr().err == f"refused: {reason}\n"
    assert sorted(f.name for f in tmp_path.iterdir()) == ["cfg.toml"]


@pytest.mark.parametrize("raw, expected", [("true", True), ("false", False)])
def test_config_loads_plain_booleans_and_integers(tmp_path, raw, expected):
    path = write_config(tmp_path, resample_lattice=raw, allow_below_threshold=raw,
                        seed=2**62 + 3, threads=2, trials=4.0)
    cfg = config_from_mapping(load_config_file(path))
    assert cfg.resample_lattice is expected and cfg.allow_below_threshold is expected
    assert (cfg.master_seed, cfg.threads, cfg.trials) == (2**62 + 3, 2, 4)


@pytest.mark.parametrize("flag, ok", [("yes", False), ("1", False), ("FALSE", True), ("true", True)])
def test_resample_lattice_flag_takes_only_true_or_false(tmp_path, flag, ok):
    argv = ["simulate", "--config", write_config(tmp_path, trials=2),
            "--out", str(tmp_path / "x.csv"), "--resample-lattice", flag]
    if ok:
        assert main(argv) == 0
    else:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_wilson_interval_basics():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and 0.0 < hi < 0.05
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi


def zero_noise_config() -> ExperimentConfig:
    return ExperimentConfig(
        n=8, p=5, R=Fraction(1, 4), R_f=Fraction(3, 4),
        snr_db_grid=[240.0],  # sigma ~ 1e-12
        trials=25, master_seed=7,
    )


def test_zero_noise_gives_zero_wer():
    results = run_monte_carlo(zero_noise_config())
    assert results[0].word_errors == 0
    assert results[0].symbol_errors == 0


def test_ser_wer_relation_per_record():
    cfg = ExperimentConfig(n=8, p=5, R=Fraction(1, 4), R_f=Fraction(3, 4),
                           snr_db_grid=[6.0], trials=60, master_seed=3)
    res = run_monte_carlo(cfg)[0]
    for rec in res.records:
        assert rec.word_error == (rec.symbol_error_count > 0)
    assert res.ser <= res.wer


def test_csv_contract_and_determinism(tmp_path):
    cfg = ExperimentConfig(n=8, p=5, R=Fraction(1, 4), R_f=Fraction(3, 4),
                           snr_db_grid=[8.0, 12.0], trials=30, master_seed=42)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(run_monte_carlo(cfg), str(a))
    emit_csv(run_monte_carlo(cfg), str(b))
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    row = lines[1].split(",")
    trials, sym, words = int(row[7]), int(row[8]), int(row[9])
    ell = 8 * (Fraction(3, 4) - Fraction(1, 4))
    assert float(row[10]) == sym / (trials * int(ell))
    assert float(row[11]) == words / trials


def lda_config(**overrides) -> ExperimentConfig:
    return ExperimentConfig(n=12, p=7, R=Fraction(1, 4), R_f=Fraction(1, 2), kind="lda",
                            delta_p=4, allow_below_threshold=True, **overrides)


@pytest.mark.parametrize("resample, pairs", [(True, 4), (False, 1)])
def test_runner_builds_and_encodes_each_trial_once(monkeypatch, resample, pairs):
    # The sent point does not depend on the SNR, so a trial's pair and
    # encoding are shared by every grid point, and a pair's points are
    # decoded in one sum-product call: per trial when each trial draws
    # its own pair, once for a fixed pair.  Every pair, resampled or
    # fixed, comes out of build_pairs; each one it yields is counted.
    names = ("encode", "bp_decode_batch", "mmse_decode_exact")
    calls = {}

    def counted(name):
        original = getattr(codec, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(codec, name, wrapper)

    def counted_pairs(*args, **kwargs):
        for pair in build_pairs(*args, **kwargs):
            calls["pairs"] += 1
            yield pair

    for name in names:
        counted(name)
    build_pairs = codec.build_pairs
    monkeypatch.setattr(codec, "build_pairs", counted_pairs)
    for decoder, batches in (("exact", 0), ("bp", pairs)):
        calls.update(dict.fromkeys(names + ("pairs",), 0))
        cfg = lda_config(snr_db_grid=[6.0, 9.0, 12.0], trials=4, master_seed=3, decoder=decoder,
                         bp_iters=10, resample_lattice=resample)
        results = run_monte_carlo(cfg)
        assert [r.trials for r in results] == [4, 4, 4]
        assert calls == {"pairs": pairs, "encode": 4, "bp_decode_batch": batches,
                         "mmse_decode_exact": 12 if decoder == "exact" else 0}


def decoded_alone(cfg, pair, y, P, sigma2):
    """(estimate, decoder status, bp iterations) of one output decoded on its own."""
    if cfg.decoder == "exact":
        return codec.mmse_decode_exact(pair, y, P, sigma2), "verified", None
    res = codec.bp_decode(pair, y, P, sigma2, iters=cfg.bp_iters)
    return res.message, "verified" if res.verified else "unverified", res.iterations


@pytest.mark.parametrize("resample", [False, True])
def test_runner_batches_give_the_records_of_a_per_point_bp_decode_loop(resample):
    # Under either decoder each record is the one its point gets decoded
    # alone, by bp_decode or by mmse_decode_exact.
    base = lda_config(snr_db_grid=[0.0, 4.0, 10.0], trials=7, bp_iters=30, master_seed=5,
                      resample_lattice=resample)
    P = channel.default_power(base.p, base.R)
    for decoder in ("bp", "exact"):
        cfg = dataclasses.replace(base, decoder=decoder)
        results = run_monte_carlo(cfg)
        for res in results:
            sigma2 = channel.noise_variance(P, res.snr_db)
            for rec in res.records:
                pair = cli._pair_for_trial(cfg, rec.trial_index)
                message = rng.generator(cfg.master_seed, "message", rec.trial_index).integers(
                    0, cfg.p, size=pair.ell, dtype=np.int64)
                y = channel.awgn_transmit(codec.encode(pair, message).point.astype(float),
                                          math.sqrt(sigma2), rec.noise_seed)
                estimate, status, iterations = decoded_alone(cfg, pair, y, P, sigma2)
                errs = int(np.count_nonzero(estimate != message))
                assert rec.symbol_error_count == errs and rec.word_error == (errs > 0)
                assert (rec.decoder_status, rec.bp_iterations) == (status, iterations)
        records = [rec for res in results for rec in res.records]
        assert 0 < sum(rec.word_error for rec in records) < len(records)
        if decoder == "bp":
            assert {rec.decoder_status for rec in records} == {"verified", "unverified"}


def test_plot_data_files(tmp_path):
    cfg = zero_noise_config()
    results = run_monte_carlo(cfg)
    emit_plot_data(results, str(tmp_path / "series"))
    ser = (tmp_path / "series.ser.dat").read_text().strip().splitlines()
    wer = (tmp_path / "series.wer.dat").read_text().strip().splitlines()
    assert len(ser) == len(wer) == 1
    assert ser[0].split()[0] == "240.0"


def test_budget_refusal_before_trials():
    cfg = ExperimentConfig(n=12, p=7, R=Fraction(1, 4), R_f=Fraction(2, 3),
                           snr_db_grid=[10.0], trials=5, master_seed=1,
                           quantizer_budget=10)  # the first search alone visits 12+ nodes
    with pytest.raises(BudgetExceededError):
        run_monte_carlo(cfg)


def test_runner_records_do_not_depend_on_the_set_up_chunk(monkeypatch):
    # Resampled pairs are set up in chunks bounded by SETUP_BYTES; chunks
    # of one, of three and of every trial give the same records.  At p = 3
    # some first draws are rank deficient and are redrawn alone.
    cfg = ExperimentConfig(n=12, p=3, R=Fraction(1, 4), R_f=Fraction(1, 2), kind="lda", delta_p=4,
                           allow_below_threshold=True, snr_db_grid=[4.0, 9.0], trials=10, master_seed=4)
    results = []
    for pairs in (1, 3, 10):
        monkeypatch.setattr(codec, "SETUP_BYTES", codec.SETUP_BYTES_PER_ENTRY * cfg.n**2 * pairs)
        results.append(run_monte_carlo(cfg))
    assert results[0] == results[1] == results[2]


def test_a_resampled_budget_refusal_exits_2_and_writes_no_file(tmp_path, capsys):
    # The same run through the command line: the pairs of all five trials
    # are set up together, and trial 0's encode still refuses first.
    out = tmp_path / "refused.csv"
    cfg = write_config(tmp_path, n=12, p=7, Rf='"2/3"', snr_db="[10.0]", trials=5, seed=1,
                       resample_lattice="true", quantizer_budget=10)
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("refused: encode: shaping lattice closest-point search refused: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.toml"]


def test_a_resampled_run_refuses_at_the_trial_that_meets_the_refusal(monkeypatch):
    # Pairs are set up a chunk of trials ahead of their encodes, but a
    # refusal still comes from the first trial that meets it.  At master
    # seed 0 of this family, trial 2's first draw is rank deficient, so with
    # one attempt allowed its pair refuses, after trials 0 and 1 have
    # encoded; with a budget of 10 nodes, trial 0's encode refuses first.
    monkeypatch.setattr(codec, "MAX_RANK_ATTEMPTS", 1)
    encoded = []
    encode = codec.encode

    def recorded(pair, message, budget):
        encoded.append(pair.seed)
        return encode(pair, message, budget=budget)

    monkeypatch.setattr(codec, "encode", recorded)
    keys = [rng.derive_key(0, "ensemble", t) for t in range(3)]
    cfg = ExperimentConfig(n=12, p=3, R=Fraction(1, 4), R_f=Fraction(1, 2), kind="lda", delta_p=4,
                           allow_below_threshold=True, trials=6, master_seed=0)
    with pytest.raises(RuntimeError, match=f"no full-rank draw after 1 attempts \\(seed {keys[2]}\\)"):
        run_monte_carlo(cfg)
    assert encoded == keys[:2]
    encoded.clear()
    with pytest.raises(BudgetExceededError, match="^encode: shaping"):
        run_monte_carlo(dataclasses.replace(cfg, quantizer_budget=10))
    assert encoded == keys[:1]


@pytest.mark.parametrize("command", ["verify-noise", "verify-ortho"])
def test_noise_verifiers_refuse_a_draw_past_their_byte_limit(command, capsys):
    # 10^12 samples would need 48 TB of arrays: refused by the named limit,
    # exit 2, before a single sample is drawn.
    tracemalloc.start()
    try:
        assert main([command, "--n", "1000000000000", "--trials", "1"]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    err = capsys.readouterr().err
    assert err == (f"refused: n = 1000000000000 noise samples need about "
                   f"{cli.NOISE_BYTES_PER_SAMPLE * 10**12} bytes of arrays per draw, over the "
                   f"allowed {cli.MAX_NOISE_BYTES} bytes\n")
    n_max = cli.MAX_NOISE_BYTES // cli.NOISE_BYTES_PER_SAMPLE
    cli._refuse_noise(n_max, 1.0)  # the largest draw allowed; nothing is drawn
    with pytest.raises(ValueError, match=f"n = {n_max + 1} noise samples"):
        cli._refuse_noise(n_max + 1, 1.0)


@pytest.mark.parametrize("command", ["verify-noise", "verify-ortho"])
@pytest.mark.parametrize("sigma", ["inf", "1e308", "1e154"])
def test_noise_verifiers_refuse_a_sigma_whose_norms_overflow(command, sigma, capsys):
    # At these sigmas every noise norm and window is inf (1e154: its square
    # times n = 16), so a verdict would check nothing; before the refusal
    # both printed PASS.
    assert main([command, "--n", "16", "--sigma", sigma, "--trials", "3"]) == 2
    assert capsys.readouterr().err == (f"refused: sigma = {float(sigma)} at n = 16 gives noise "
                                       "whose squared norm, about sigma^2 n, overflows float64\n")
    assert main([command, "--n", "16", "--sigma", "1e150", "--trials", "3"]) in (0, 1)


def test_wer_seed_stability_wilson_overlap():
    # Across 5 master seeds the WER estimates agree within overlapping
    # 95% Wilson intervals.
    intervals = []
    for seed in range(5):
        cfg = ExperimentConfig(n=8, p=5, R=Fraction(1, 8), R_f=Fraction(1, 2),
                               snr_db_grid=[7.0], trials=150, master_seed=seed)
        res = run_monte_carlo(cfg)[0]
        intervals.append(wilson_interval(res.word_errors, res.trials))
    lo = max(i[0] for i in intervals)
    hi = min(i[1] for i in intervals)
    assert lo <= hi, f"disjoint intervals: {intervals}"


def test_cli_simulate_and_determinism(tmp_path):
    cfgpath = write_config(tmp_path)
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert main(["simulate", "--config", cfgpath, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", cfgpath, "--out", str(out2), "--threads", "8"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_run_flags_override_their_config_keys(tmp_path):
    cfgpath = write_config(tmp_path, kind='"lda"', n=12, p=7, Rf='"1/2"', delta_p=4)
    out = tmp_path / "r.csv"
    argv = ["simulate", "--config", cfgpath, "--out", str(out), "--trials", "3"]
    assert main(argv) == 2  # delta_p = 4 is below the threshold
    assert main(argv + ["--allow-below-threshold", "--snr-db", "5,9", "--seed", "9",
                        "--decoder", "bp", "--resample-lattice", "false"]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [(r[0], r[6], r[7], r[14]) for r in rows] == [("5.0", "bp", "3", "9"), ("9.0", "bp", "3", "9")]


def test_cli_simulate_refusal_exit_code(tmp_path):
    cfgpath = write_config(tmp_path, Rf='"2/3"', n=12, p=7, R='"1/4"',
                           quantizer_budget=10)
    assert main(["simulate", "--config", cfgpath, "--out", str(tmp_path / "x.csv")]) == 2
    assert not (tmp_path / "x.csv").exists()


def test_cli_simulate_refuses_a_non_integral_variable_degree(tmp_path, capsys):
    # delta_p = 5 over the 6 fine checks of n = 12 gives variable degree 5/2.
    cfgpath = write_config(tmp_path, kind='"lda"', n=12, p=7, Rf='"1/2"', delta_p=5,
                           allow_below_threshold="true")
    assert main(["simulate", "--config", cfgpath, "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == (
        "refused: variable degree f*delta = 5/2 is not a positive integer\n")
    assert not (tmp_path / "x.csv").exists()


def test_cli_gen_encode_decode_round_trip(tmp_path):
    cfgpath = write_config(tmp_path)
    pairpath = tmp_path / "pair.txt"
    assert main(["gen", "--config", cfgpath, "--out", str(pairpath)]) == 0
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(["encode", "--pair", str(pairpath), "--message", "1,2,3,4"]) == 0
    point = buf.getvalue().strip()
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(["decode", "--pair", str(pairpath), "--y", point, "--snr-db", "100"]) == 0
    assert buf.getvalue().strip() == "1,2,3,4"


def test_cli_encode_decode_refuse_bad_input(tmp_path, capsys):
    cfgpath = write_config(tmp_path)
    pairpath = tmp_path / "pair.txt"
    assert main(["gen", "--config", cfgpath, "--out", str(pairpath)]) == 0
    good = pairpath.read_text()
    pairpath.write_text("\n".join(good.splitlines()[:5]) + "\n")
    assert main(["encode", "--pair", str(pairpath), "--message", "1,2,3,4"]) == 2
    assert main(["decode", "--pair", str(pairpath), "--y", "0,0,0,0,0,0,0,0",
                 "--snr-db", "10"]) == 2
    assert "refused: bad pair file" in capsys.readouterr().err
    pairpath.write_text(good)
    assert main(["decode", "--pair", str(pairpath), "--y", "nan,0,0,0,0,0,0,0",
                 "--snr-db", "10"]) == 2
    assert "refused: point has non-finite entries" in capsys.readouterr().err
    assert main(["encode", "--pair", str(pairpath), "--message", "99999999999999999999,2,3,4"]) == 2
    assert capsys.readouterr().err == (
        "refused: --message symbol 99999999999999999999 does not fit in int64\n")
    lines = good.splitlines()
    k = lines.index("labels") + 1
    for label in ("99999999999999999999", "-5"):
        lines[k] = f"0 {label}"
        pairpath.write_text("\n".join(lines) + "\n")
        assert main(["encode", "--pair", str(pairpath), "--message", "1,2,3,4"]) == 2
        assert capsys.readouterr().err == (f"refused: bad pair file at line {k + 1}: ValueError: "
                                           f"label {label} out of range [0, 5)\n")


def test_cli_decode_refuses_a_wrong_length_y(tmp_path, capsys):
    cfgpath = write_config(tmp_path, kind='"lda"', n=12, p=7, Rf='"1/2"', delta_p=4,
                           allow_below_threshold="true")
    pairpath = tmp_path / "pair.txt"
    assert main(["gen", "--config", cfgpath, "--out", str(pairpath)]) == 0
    for decoder in ("exact", "bp"):
        assert main(["decode", "--pair", str(pairpath), "--y", "0.5,1.0", "--snr-db", "10",
                     "--decoder", decoder]) == 2
        err = capsys.readouterr().err
        assert err.startswith("refused: expected length-12 vector") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["verify-mindist", "--Rf", "1/0"],
    ["thresholds", "--D", "2", "--f", "1/0"],
    ["simulate", "--config", "{cfg}", "--out", "{tmp}/x.csv"],
])
def test_cli_refuses_a_zero_denominator(tmp_path, capsys, argv):
    fill = {"cfg": write_config(tmp_path, R='"1/0"'), "tmp": str(tmp_path)}
    try:
        code = main([a.format(**fill) for a in argv])
    except SystemExit as exc:  # argparse refuses a flag value it cannot convert
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2 and "'1/0'" in err and "Traceback" not in err
    assert sorted(f.name for f in tmp_path.iterdir()) == ["cfg.toml"]


def test_cli_simulate_refuses_a_missing_out_directory_before_any_trial(tmp_path, capsys,
                                                                      monkeypatch):
    def no_trials(config):
        raise AssertionError("trials ran before --out was checked")

    monkeypatch.setattr(cli, "run_monte_carlo", no_trials)
    argv = ["simulate", "--config", write_config(tmp_path),
            "--out", str(tmp_path / "no-such-dir" / "x.csv")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("refused: no directory")
    assert sorted(f.name for f in tmp_path.iterdir()) == ["cfg.toml"]


def test_cli_simulate_refuses_an_existing_directory_as_out_before_any_trial(tmp_path, capsys,
                                                                           monkeypatch):
    def no_pairs(*args, **kwargs):
        raise AssertionError("a trial ran before --out was checked")

    monkeypatch.setattr(codec, "build_pair", no_pairs)
    (tmp_path / "x.csv").mkdir()
    argv = ["simulate", "--config", write_config(tmp_path), "--out", str(tmp_path / "x.csv")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("refused: output path") and "is a directory" in err
    assert sorted(f.name for f in tmp_path.iterdir()) == ["cfg.toml", "x.csv"]


@pytest.mark.parametrize("rate", ["0", "1"])
def test_cli_verify_mindist_refuses_a_rate_outside_the_open_interval(capsys, rate):
    assert main(["verify-mindist", "--Rf", rate, "--codes", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"refused: rate R_f = {rate} breaks 0 < R_f < 1")
    assert "PASS" not in captured.out


@pytest.mark.parametrize("argv, named", [
    (["--w-max", "0", "--codes", "2"], "w_max = 0"),
    (["--w-max", "-3", "--codes", "2"], "w_max = -3"),
    (["--codes", "0"], "codes = 0"),
])
def test_cli_verify_mindist_refuses_a_vacuous_search(capsys, argv, named):
    assert main(["verify-mindist", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"refused: {named} must be at least 1")
    assert "PASS" not in captured.out


# Each of these printed a [PASS] that checked nothing, a FAIL for a bad
# argument, a traceback, or a refusal that did not name the argument; every
# one is refused (exit 2), by name, before any work.
@pytest.mark.parametrize("argv, reason", [
    (["verify-noise", "--trials", "0"], "trials = 0 must be at least 1"),
    (["verify-noise", "--n", "0", "--trials", "20"], "n = 0 must be at least 1"),
    (["verify-noise", "--sigma", "-1", "--n", "100", "--trials", "20"],
     "sigma = -1.0 must be above 0"),
    (["verify-ortho", "--trials", "0"], "trials = 0 must be at least 1"),
    (["verify-ortho", "--sigma", "0", "--n", "100", "--trials", "20"], "sigma = 0.0 must be above 0"),
    (["verify-ortho", "--n", "1", "--trials", "20"], "n = 1 must be at least 2"),
    (["verify-norm", "--count", "0"], "count = 0 must be at least 1"),
    (["verify-counts", "--cases", "0"], "cases = 0 must be at least 1"),
    (["verify-counts", "--cases", "-1"], "cases = -1 must be at least 1"),
    (["verify-expansion", "--graphs", "0"], "graphs = 0 must be at least 1"),
    (["verify-expansion", "--n-left", "0", "--graphs", "2"], "n_left = 0 must be at least 1"),
    (["verify-mindist", "--n", "0", "--codes", "2"], "n = 0 must be at least 1"),
    (["verify-mindist", "--n", "-5", "--codes", "2"], "n = -5 must be at least 1"),
    (["verify-noise", "--eps", "5", "--n", "100", "--trials", "20"], "eps = 5.0 must be inside (0, 1)"),
    (["verify-noise", "--eps=-0.1", "--n", "100", "--trials", "20"],
     "eps = -0.1 must be inside (0, 1)"),
    (["verify-expansion", "--D", "inf", "--delta", "20"], "D = inf must be a finite number >= 1"),
    (["verify-expansion", "--D", "nan", "--delta", "20"], "D = nan must be a finite number >= 1"),
    (["verify-expansion", "--D", "nan"], "D = nan must be a finite number >= 1"),
])
def test_cli_refuses_an_empty_or_degenerate_verifier_run(capsys, argv, reason):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"refused: {reason}") and "Traceback" not in captured.err
    assert "PASS" not in captured.out


@pytest.mark.parametrize("snr", ["nan", "inf", "-inf"])
def test_cli_refuses_a_non_finite_snr_before_any_pair(tmp_path, capsys, monkeypatch, snr):
    cfg = write_config(tmp_path, kind='"lda"', n=12, p=7, Rf='"1/2"', delta_p=4,
                       allow_below_threshold="true")
    pairpath = tmp_path / "pair.txt"
    assert main(["gen", "--config", cfg, "--out", str(pairpath)]) == 0
    capsys.readouterr()
    for decoder in ("exact", "bp"):
        assert main(["decode", "--pair", str(pairpath), "--y", ",".join(["0.5"] * 12),
                     f"--snr-db={snr}", "--decoder", decoder]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"refused: snr_db = {float(snr)} is not finite\n"
        assert captured.out == ""

    def no_pairs(*args, **kwargs):
        raise AssertionError("a pair was built before the SNR grid was checked")

    monkeypatch.setattr(codec, "build_pair", no_pairs)
    out = tmp_path / "x.csv"
    for argv in (["--config", cfg, f"--snr-db=4,{snr}"],
                 ["--config", write_config(tmp_path, snr_db=f"[8.0, {snr}]")]):
        assert main(["simulate", *argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"refused: snr_db = {float(snr)} is not finite\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "gen"])
def test_cli_refuses_a_dimension_below_one(tmp_path, capsys, command):
    cfg = write_config(tmp_path, n=0)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out.txt")]) == 2
    assert capsys.readouterr().err.startswith("refused: n = 0 must be at least 1")
    assert sorted(f.name for f in tmp_path.iterdir()) == ["cfg.toml"]


@pytest.mark.parametrize("p", [-3, 0])
@pytest.mark.parametrize("command", ["simulate", "gen"])
def test_cli_refuses_a_modulus_that_is_not_an_odd_prime(tmp_path, capsys, command, p):
    # The default power p^(2(1-R)) / (2 pi e) is complex at p < 0 and 0 at
    # p = 0, so the modulus is checked before the SNR grid is.
    out = tmp_path / "out.txt"
    assert main([command, "--config", write_config(tmp_path, p=p), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "refused: p must be an odd prime\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, p, size", [
    (["verify-mindist", "--p", "99999999999999999989", "--codes", "1"],
     99999999999999999989, "12 x 30"),
    (["gen", "--config", "{lam30}", "--out", "{tmp}/pair.txt"],
     237376313799769806328950291431513, "3 x 12"),
    (["gen", "--config", "{lam9}", "--out", "{tmp}/pair.txt"], 5159780333, "3 x 12"),
])
def test_cli_refuses_a_modulus_past_int64_arithmetic(tmp_path, capsys, argv, p, size):
    # The draw of the entries would otherwise fail inside numpy, or wrap.
    fill = {"tmp": str(tmp_path)}
    for lam in (30, 9):
        path = tmp_path / f"lam{lam}.toml"
        path.write_text(f'n = 12\nlambda = {lam}\nR = "1/4"\nRf = "1/2"\ntrials = 2\n')
        fill[f"lam{lam}"] = str(path)
    assert main([a.format(**fill) for a in argv]) == 2
    assert capsys.readouterr().err.startswith(
        f"refused: modulus p = {p} is too large for int64 arithmetic on a {size} matrix")
    assert not (tmp_path / "pair.txt").exists()


@pytest.mark.parametrize("graphs, bound", [(3, 3), (10, 10), (20, 19), (100, 95)])
def test_verify_expansion_asks_95_percent_of_the_graphs_clean(graphs, bound):
    # ceil(95 graphs / 100), so a short run can pass; an explicit
    # required_clean still wins (test_verify_expansion_small).
    report = verify_expansion(n_left=60, graphs=graphs, budget=2_000, master_seed=2)
    assert report.bound == bound and report.measured == graphs and report.passed


@pytest.mark.parametrize("argv", [
    ["simulate", "--config", "{missing}/cfg.toml", "--out", "{tmp}/x.csv"],
    ["gen", "--config", "{missing}/cfg.toml", "--out", "{tmp}/pair.txt"],
    ["encode", "--pair", "{missing}/pair.txt", "--message", "1,2,3,4"],
    ["decode", "--pair", "{missing}/pair.txt", "--y", "0,0,0,0,0,0,0,0", "--snr-db", "10"],
    ["simulate", "--config", "{cfg}", "--out", "{missing}/x.csv"],
    ["gen", "--config", "{cfg}", "--out", "{missing}/pair.txt"],
])
def test_cli_refuses_unreadable_or_unwritable_paths(tmp_path, capsys, argv):
    fill = {"missing": str(tmp_path / "no-such-dir"), "tmp": str(tmp_path),
            "cfg": write_config(tmp_path, trials=2)}
    assert main([a.format(**fill) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("refused:") and "Traceback" not in err
    assert sorted(f.name for f in tmp_path.iterdir()) == ["cfg.toml"]


@pytest.mark.parametrize("command, argv, given", [
    ("verify-noise", ["--n", "50", "--sigma", "2", "--eps", "0.1", "--trials", "7", "--seed", "3"],
     {"n": 50, "sigma": 2.0, "eps": 0.1, "trials": 7, "master_seed": 3}),
    ("verify-ortho", ["--n", "50", "--sigma", "2", "--trials", "7", "--seed", "3"],
     {"n": 50, "sigma": 2.0, "trials": 7, "master_seed": 3}),
    ("verify-norm", ["--kind", "lda", "--n", "12", "--p", "7", "--R", "1/4", "--Rf", "1/2",
                     "--delta-p", "4", "--count", "9", "--seed", "3"],
     {"kind": "lda", "n": 12, "p": 7, "R": Fraction(1, 4), "R_f": Fraction(1, 2), "delta_p": 4,
      "count": 9, "master_seed": 3}),
    ("verify-expansion", ["--n-left", "60", "--f", "1/2", "--D", "2.5", "--delta", "6",
                          "--graphs", "4", "--budget", "100", "--seed", "3"],
     {"n_left": 60, "f": Fraction(1, 2), "D": 2.5, "delta": 6, "graphs": 4, "budget": 100,
      "master_seed": 3}),
    ("verify-mindist", ["--Rf", "1/2", "--seed", "3"], {"R_f": Fraction(1, 2), "master_seed": 3}),
    ("verify-mindist", ["--codes", "5", "--n", "24", "--p", "11", "--delta-p", "8", "--w-max", "3"],
     {"codes": 5, "n": 24, "p": 11, "delta_p": 8, "w_max": 3}),
    ("verify-counts", ["--cases", "5", "--seed", "3"], {"cases": 5, "master_seed": 3}),
])
def test_cli_passes_a_verifier_only_the_flags_given(monkeypatch, capsys, command, argv, given):
    # An omitted flag leaves the verifier's own default in force.
    name = command.replace("-", "_")
    inspect.signature(getattr(cli, name)).bind(**given)  # every key is a real parameter
    seen = []

    def fake(**kwargs):
        seen.append(kwargs)
        return VerifyReport(name, len(seen) == 1, 0.0, 0.0, "fake")

    monkeypatch.setattr(cli, name, fake)
    assert main([command]) == 0
    assert main([command, *argv]) == 1
    assert seen == [{}, given]
    assert capsys.readouterr().out.splitlines()[0] == f"[PASS] {name}: measured 0 vs bound 0 (fake)"


def test_verify_noise_small():
    report = verify_noise(n=4000, trials=300, master_seed=1, pass_freq=0.99)
    assert report.passed


def test_verify_ortho_small():
    report = verify_ortho(n=2000, trials=300, master_seed=1)
    assert report.passed


def test_verify_norm_small():
    report = verify_norm(count=60, master_seed=1)
    assert report.passed
    assert report.measured >= 0.9


def test_verify_counts_small():
    report = verify_counts(cases=25, master_seed=1)
    assert report.passed


def test_verify_expansion_small():
    report = verify_expansion(n_left=60, graphs=10, budget=8_000,
                              master_seed=1, required_clean=9)
    assert report.passed
    margin = float(report.detail.split("min-clean-expansion-ratio=")[1].split()[0])
    assert 1.0 <= margin < 10.0


@pytest.mark.parametrize("budget", ["0", "1"])
def test_cli_verify_expansion_refuses_an_empty_budget(capsys, budget):
    # Split over two directions, a budget below 2 checks nothing; it must
    # not report 100 clean graphs.
    argv = ["verify-expansion", "--n-left", "60", "--graphs", "100", "--budget", budget]
    assert main(argv) == 2
    assert "refused: budget" in capsys.readouterr().err


def test_cli_verify_expansion_refuses_an_oversized_check_before_any_graph(capsys, monkeypatch):
    # With the allowance cut to 1000 bytes, the default 60 x 15 graphs need
    # 8100: refused by name before a graph is built.
    from lda_lab import expander

    def no_graph(*args, **kwargs):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(expander, "MAX_CHECK_BYTES", 1000)
    monkeypatch.setattr(expander, "build_graph", no_graph)
    assert main(["verify-expansion", "--n-left", "60", "--graphs", "2"]) == 2
    err = capsys.readouterr().err
    assert "refused: expansion check refused: a dense 60 x 15 biadjacency" in err
    assert "need 8100 bytes, over the allowed 1000 bytes" in err


def test_verify_mindist_clean_profile():
    # Variable degree 4 at this delta_p: low-weight words are absent.
    report = verify_mindist(codes=5, n=24, p=11, R_f=Fraction(1, 2),
                            delta_p=8, w_max=3, master_seed=1)
    assert report.passed


def _traced_verify_mindist(codes: int) -> tuple[int, int]:
    """(peak, held) traced bytes of one verify_mindist run of ``codes``
    criterion-6 supplement codes (n = 30, p = 31, R_f = 1/2, delta_p = 8,
    w_max = 4), the benchmark's profile."""
    tracemalloc.start()
    try:
        verify_mindist(codes=codes, n=30, p=31, R_f=Fraction(1, 2), delta_p=8, w_max=4,
                       master_seed=606)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, held


def test_a_stacked_verify_mindist_run_holds_its_codes_and_levels_once():
    # Ten codes, built and searched as one stack: their checks, each code's
    # column masks and the links of one level of supports of all ten.
    # About 405 KiB at the peak, and nothing held after it returns.
    peak, held = _traced_verify_mindist(10)
    assert peak < 512 * 1024 and held < 16 * 1024, (peak, held)


def test_a_many_code_verify_mindist_run_holds_one_chunk_at_a_time():
    # Codes are stacked as many as a set-up chunk holds (18 at n = 30):
    # three chunks peak where one does (about 870 KiB), not three times as
    # high.
    chunk = codec._setup_chunk(30)
    one, _ = _traced_verify_mindist(chunk)
    three, _ = _traced_verify_mindist(3 * chunk)
    assert three < 1.1 * one, (one, three)


def test_cli_verify_exit_codes():
    assert main(["verify-counts", "--cases", "10"]) == 0
    assert main(["thresholds", "--D", "2", "--f", "1/2", "--Rf", "3/4"]) == 0
    assert main(["thresholds", "--D", "0.5", "--f", "1/2"]) == 2  # D below 1 is refused


def test_exact_decoder_wer_curve_monotone_with_wilson_slack():
    # Reduced-scale version of the WER-vs-SNR monotonicity run: adjacent
    # grid points may only invert within overlapping Wilson intervals.
    cfg = ExperimentConfig(n=8, p=5, R=Fraction(1, 8), R_f=Fraction(1, 2),
                           snr_db_grid=[5.0, 7.0, 9.0, 11.0], trials=300,
                           master_seed=17)
    results = run_monte_carlo(cfg)
    wers = [r.wer for r in results]
    intervals = [wilson_interval(r.word_errors, r.trials) for r in results]
    for i in range(len(wers) - 1):
        assert wers[i + 1] <= wers[i] or intervals[i + 1][0] <= intervals[i][1]
    assert wers[-1] < wers[0]


def test_nonzero_message_rarely_decodes_to_zero():
    # Decoding a nonzero message to 0 is a word error, so its frequency is
    # bounded by the overall WER.
    cfg = ExperimentConfig(n=8, p=5, R=Fraction(1, 8), R_f=Fraction(1, 2),
                           snr_db_grid=[7.0], trials=120, master_seed=21)
    res = run_monte_carlo(cfg)[0]
    import numpy as np

    from lda_lab import channel, codec, rng
    from lda_lab.cli import _pair_for_trial

    zero_decodes = 0
    import math as _math
    P = channel.default_power(cfg.p, cfg.R)
    sigma2 = P / 10.0 ** 0.7
    for t in range(cfg.trials):
        pair = _pair_for_trial(cfg, t)
        gen = rng.generator(cfg.master_seed, "message", t)
        m = gen.integers(0, cfg.p, size=pair.ell)
        if not m.any():
            continue
        x = codec.encode(pair, m).point.astype(float)
        y = channel.awgn_transmit(x, _math.sqrt(sigma2),
                                  rng.derive_key(cfg.master_seed, "noise", 7.0, t))
        if not codec.mmse_decode_exact(pair, y, P, sigma2).any():
            zero_decodes += 1
    assert zero_decodes <= res.word_errors

# ---------------------------------------------------------------------------
# Config files under random edits


# No text sets quantizer_budget: an extreme budget asks for a search without
# bound, which at lambda = 5 (p = 248,839) ran past two minutes.
CONFIG_TEXTS = [
    'n = 8\np = 5\nR = "1/4"\nRf = "3/4"\nkind = "dense"\nsnr_db = [8.0, 12.0]\n'
    'trials = 30\ndecoder = "exact"\nseed = 42\n',
    'n = 12\np = 7\nR = "1/4"\nRf = "1/2"\nkind = "lda"\ndelta_p = 4\nD = 2\n'
    'allow_below_threshold = true\nsnr_db = [6.0, 10.0]\ntrials = 8\ndecoder = "exact"\n'
    'seed = 3\nresample_lattice = true\n',
    'n = 12\nlambda = 0.78\nR = "1/4"\nRf = "1/2"\nkind = "lda"\ndelta_p = 4\n'
    'allow_below_threshold = true\nsnr_db = 10\ntrials = 4\ndecoder = "bp"\nbp_iters = 20\n'
    'seed = 9\nresample_lattice = false\n',
]
CONFIG_EXTREMES = ["0", "1", "-1", "-5", "7", str(2**31), str(2**63 - 1), str(2**63),
                   "99999999999999999989", str(-10**20), "1e308", "-1e308", "1e-300", "inf",
                   "nan", "0.0", '""', "[]", "true"]


@st.composite
def edited_config_files(draw):
    """A valid simulate config with one to three random edits: a line or a
    token deleted, inserted or replaced, or a value set to an extreme."""
    lines = draw(st.sampled_from(CONFIG_TEXTS)).splitlines()
    tokens = sorted({t for ln in lines for t in ln.split()})
    token = st.one_of(st.sampled_from(tokens), st.sampled_from(CONFIG_EXTREMES),
                      st.integers(-20, 20).map(str), st.text(max_size=4))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        words = lines[i].split()
        j = draw(st.integers(0, len(words)))
        edit = draw(st.sampled_from(["delete line", "insert line", "replace line",
                                     "delete token", "insert token", "replace token", "extreme"]))
        event(edit)
        if edit == "delete line":
            del lines[i]
        elif edit == "insert line":
            lines.insert(i, " ".join(draw(st.lists(token, max_size=3))))
        elif edit == "replace line":
            lines[i] = draw(st.sampled_from(lines))
        elif edit == "insert token":
            words.insert(j, draw(token))
        elif j < len(words) and edit == "delete token":
            del words[j]
        elif edit == "extreme":
            words[-1:] = [draw(st.sampled_from(CONFIG_EXTREMES))]  # the value of "key = value"
        elif j < len(words):
            words[j] = draw(token)
        if edit.endswith("token") or edit == "extreme":
            lines[i] = " ".join(words)
        if not lines:
            break
    return "\n".join(lines) + "\n"


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=edited_config_files())
# Holes the fuzz found: a 32 GiB graph permutation, a list where a number
# belongs, a D whose threshold divided by zero, and 2^31 BP iterations.
@example(text=CONFIG_TEXTS[1].replace("n = 12", f"n = {2**31}"))
@example(text=CONFIG_TEXTS[2].replace("lambda = 0.78", "lambda = []"))
@example(text=CONFIG_TEXTS[1].replace("D = 2", f"D = {2**63 - 1}"))
@example(text=CONFIG_TEXTS[2].replace("bp_iters = 20", f"bp_iters = {2**31}"))
def test_simulate_runs_or_refuses_edited_config_files(text):
    # One trial per run: exit 0, or 2 with a refused: line and no output
    # file; never a traceback.
    with tempfile.TemporaryDirectory() as folder:
        config, out = os.path.join(folder, "cfg.toml"), os.path.join(folder, "x.csv")
        with open(config, "w", encoding="utf-8") as fh:
            fh.write(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["simulate", "--config", config, "--out", out, "--trials", "1"])
        event(f"exit {code}")
        assert code in (0, 2)
        assert os.path.exists(out) == (code == 0)
        if code == 2:
            assert err.getvalue().startswith("refused: ")


# Valid argv of every subcommand, small enough to run in milliseconds.
VERIFIER_ARGV = [
    ["verify-mindist", "--codes", "2", "--n", "12", "--p", "7", "--Rf", "1/2", "--delta-p", "4",
     "--w-max", "3", "--seed", "5"],
    ["verify-expansion", "--n-left", "40", "--f", "1/4", "--D", "2", "--delta", "20",
     "--graphs", "1", "--budget", "200", "--seed", "5"],
    ["verify-counts", "--cases", "2", "--seed", "5"],
    ["verify-norm", "--kind", "lda", "--n", "12", "--p", "7", "--R", "1/4", "--Rf", "1/2",
     "--delta-p", "4", "--count", "2", "--seed", "5"],
    ["verify-noise", "--n", "16", "--sigma", "1.5", "--eps", "0.1", "--trials", "3", "--seed", "5"],
    ["verify-ortho", "--n", "16", "--sigma", "1.5", "--trials", "3", "--seed", "5"],
    ["thresholds", "--D", "2", "--f", "1/4", "--Rf", "1/2"],
    # The run commands, on the files of the run_files fixture, named in braces.
    ["gen", "--config", "{config}", "--out", "pair.txt", "--seed", "5"],
    ["encode", "--pair", "{pair}", "--message", "1,2,3"],
    ["decode", "--pair", "{pair}", "--y", "{y}", "--snr-db", "10", "--decoder", "bp"],
    ["simulate", "--config", "{config}", "--out", "out.csv", "--trials", "2", "--snr-db", "6,10",
     "--decoder", "bp", "--seed", "5", "--resample-lattice", "false"],
]
# An LDA config of two trials at two SNR points, for gen and simulate; the
# pair file gen writes from it, for encode and decode; and the point that
# encodes message 1,2,3 there, for decode.  A dropped --decoder runs the
# exact decoder.  An edited --snr-db is one extreme, so a grid never has
# more than two points.
RUN_CONFIG = ('n = 12\np = 7\nR = "1/4"\nRf = "1/2"\nkind = "lda"\ndelta_p = 4\n'
              'allow_below_threshold = true\nsnr_db = [6.0, 10.0]\ntrials = 2\nbp_iters = 20\n')
ARGV_EXTREMES = ["0", "1", "-1", "2", "3", "7", "1/2", "2/3", str(2**31), str(2**63 - 1), str(2**63),
                 str(-10**20), "99999999999999999989", "1e308", "-1e308", "1e-300", "inf", "-inf",
                 "nan", "1/0", "0/1", "x", ""]
# The flags that set how much work a run does, each with the largest value
# the fuzz may give it, so that a run's time stays bounded without timing it.
BOUNDED_FLAGS = {"--codes": 3, "--graphs": 2, "--budget": 2000, "--n-left": 80, "--cases": 3,
                 "--count": 2, "--trials": 3, "--n": 16}
# The sizes, which take every extreme beside their bounded values: each
# command refuses the sizes in ARGV_EXTREMES past those bounds before any
# work.
SIZE_FLAGS = {"--n", "--n-left"}
# The counts of verify-counts, verify-norm, verify-noise and verify-ortho,
# whose defaults run for seconds (100 cases, 500 encodes, 10,000 trials):
# the fuzz edits their values but never drops them.
KEPT_FLAGS = {"--trials", "--cases", "--count"}


@st.composite
def edited_verifier_argv(draw, argv):
    """A valid argv of any subcommand with one to three random edits: a
    flag dropped, repeated, replaced by another of its command's flags or
    left without its value, or its value replaced by an extreme.  The
    flags of BOUNDED_FLAGS only take values up to their bound or values
    that do not parse, the sizes (SIZE_FLAGS) any extreme as well, and the
    flags of KEPT_FLAGS are not dropped."""
    command, pairs = argv[0], [argv[i:i + 2] for i in range(1, len(argv), 2)]
    flags = [flag for flag, _ in pairs]

    def value(flag):
        if flag in BOUNDED_FLAGS:
            extremes = ARGV_EXTREMES if flag in SIZE_FLAGS else ["x", "1.5", "", "1e308"]
            return draw(st.one_of(st.integers(-2, BOUNDED_FLAGS[flag]).map(str),
                                  st.sampled_from(extremes)))
        return draw(st.sampled_from(ARGV_EXTREMES))

    for _ in range(draw(st.integers(1, 3))):
        if not pairs:
            break
        i = draw(st.integers(0, len(pairs) - 1))
        edit = draw(st.sampled_from(["drop", "repeat", "replace flag", "drop value", "extreme"]))
        if edit in ("drop", "replace flag") and pairs[i][0] in KEPT_FLAGS:
            edit = "extreme"
        event(edit)
        if edit == "drop":
            del pairs[i]
        elif edit == "repeat":
            pairs.insert(i, [pairs[i][0], value(pairs[i][0])])
        elif edit == "replace flag":
            flag = draw(st.sampled_from(flags))
            pairs[i] = [flag] + (pairs[i][1:] if flag not in BOUNDED_FLAGS else [value(flag)])
        elif edit == "drop value":
            pairs[i] = pairs[i][:1]
        else:
            pairs[i] = [pairs[i][0], value(pairs[i][0])]
    return [command] + [token for pair in pairs for token in pair]


@contextlib.contextmanager
def working_directory(path):
    """``contextlib.chdir``, which Python 3.10 lacks."""
    home = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(home)


@pytest.fixture(scope="module")
def run_files(tmp_path_factory):
    """The config, pair file and encoded point that VERIFIER_ARGV's braces name."""
    folder = tmp_path_factory.mktemp("run-argv")
    config, pair = folder / "cfg.toml", folder / "pair.txt"
    config.write_text(RUN_CONFIG)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["gen", "--config", str(config), "--out", str(pair)]) == 0
        assert main(["encode", "--pair", str(pair), "--message", "1,2,3"]) == 0
    return {"config": str(config), "pair": str(pair), "y": out.getvalue().splitlines()[-1]}


@pytest.mark.parametrize("valid", VERIFIER_ARGV, ids=lambda argv: argv[0])
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_verifiers_run_or_refuse_edited_argv(valid, data, run_files):
    argv = data.draw(edited_verifier_argv([token.format(**run_files) for token in valid]))
    # Exit 0 or 1 (a verifier's PASS or FAIL), or 2: a refused: line from
    # the command, or argparse's usage error for a flag it cannot parse;
    # never a traceback, and no file written by a refused run.  Each run
    # writes in a folder of its own.
    err = io.StringIO()
    with (tempfile.TemporaryDirectory() as folder, working_directory(folder),
          contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err)):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
            assert code == 2 and "error: " in err.getvalue()
        written = os.listdir(folder)
    event(f"exit {code}")
    assert code in (0, 1, 2) and "Traceback" not in err.getvalue()
    if code == 2:
        assert not written
        if "error: " not in err.getvalue():
            assert err.getvalue().startswith("refused: ")


def _budget_raise_sites() -> set[str]:
    """module.function of every ``raise BudgetExceededError(...)`` in the
    package, methods by their own name and nested functions by the
    function around them."""
    sites = set()
    for path in Path(codec.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        scopes = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
        scopes += [node for cls in tree.body if isinstance(cls, ast.ClassDef)
                   for node in cls.body if isinstance(node, ast.FunctionDef)]
        for scope in scopes:
            if any(isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                   and getattr(node.exc.func, "id", None) == "BudgetExceededError"
                   for node in ast.walk(scope)):
                sites.add(f"{path.stem}.{scope.name}")
    return sites


def _budget_refusals(monkeypatch) -> list[tuple[str, object, str, str, str]]:
    """(raise site, call, layer, requested size, allowed size) of one
    refusal at each site, with the layer as the message's start."""
    from lda_lab.expander import MAX_CHECK_BYTES, MAX_SOCKETS, TannerGraph, build_graphs, check_d_good
    from lda_lab.lattice import BallSpec, count_integer_points, lemma2_bounds, min_hamming_weights

    ball = BallSpec(np.zeros(4), 10.0, 4)
    bound = lemma2_bounds(ball)[1]
    pair = codec.build_pair(12, 7, "1/4", "1/2", "lda", seed=1, delta_p=4)
    message = np.arange(1, pair.ell + 1)
    y = codec.encode(pair, message).point + 0.1
    P = channel.default_power(pair.p, pair.R)
    table = pair.p ** pair.fine.k_eff
    supports = sum(math.comb(pair.n, w) for w in range(1, 4))
    huge = TannerGraph.from_edges(10**12, 10**11, [(0, 0), (1, 1), (2, 2)])
    need = codec.BP_BYTES_PER_SYMBOL * 3 * pair.n * pair.p
    monkeypatch.setattr(codec, "MAX_BP_BYTES", need - 1)
    return [
        ("lattice._ball_runs", lambda: count_integer_points(ball, budget=100),
         "integer-point enumeration refused: ", f"upper bound {bound:.3g} points", "budget 100"),
        ("codec.encode", lambda: codec.encode(pair, message, budget=1),
         "encode: shaping lattice closest-point search refused: ", "2 search nodes", "budget of 1"),
        ("codec.mmse_decode_exact", lambda: codec.mmse_decode_exact(pair, y, P, 0.1, budget=1),
         "decode: fine lattice closest-point search refused: ", "2 search nodes", "budget of 1"),
        ("lattice._search", lambda: pair.fine.shortest_vector(budget=1),
         "lattice shortest-vector search refused: ", "2 search nodes", "budget of 1"),
        ("lattice.codewords", lambda: pair.fine.codewords(budget=10),
         "codeword enumeration refused: ", f"p^k = {table}", "budget 10"),
        ("lattice.min_hamming_weights", lambda: min_hamming_weights([pair.fine] * 2, 3, budget=100),
         "support enumeration refused: ", f"{supports} supports", "budget 100"),
        ("expander.build_graphs", lambda: build_graphs(2**20, Fraction(1, 2), 8, [0, 1]),
         "graph build refused: ", f"{2**22} sockets", f"allowed {MAX_SOCKETS}"),
        ("expander.refuse_oversized_check", lambda: check_d_good(huge, 2.0),
         "expansion check refused: ", f"{9 * 10**23} bytes", f"allowed {MAX_CHECK_BYTES} bytes"),
        ("codec.bp_decode_batch", lambda: codec.bp_decode_batch(pair, [y] * 3, P, [0.1] * 3),
         "bp decoder refused: ", f"{need} bytes", f"allowed {need - 1} bytes"),
    ]


def test_every_budget_refusal_names_its_layer_and_both_sizes(monkeypatch):
    # One refusal at each raise site of the package, each before any work
    # of the size refused is done; a new site needs a case here.
    refusals = _budget_refusals(monkeypatch)
    assert {site for site, *_ in refusals} == _budget_raise_sites()
    for site, call, layer, requested, allowed in refusals:
        with pytest.raises(BudgetExceededError) as refusal:
            call()
        text = str(refusal.value)
        assert text.startswith(layer), (site, text)
        assert requested in text and allowed in text, (site, text)
