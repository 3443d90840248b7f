"""Runner determinism, CSV contract, config handling, verify commands."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from lda_lab.cli import (
    CSV_HEADER,
    ExperimentConfig,
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
    assert cfg.realized_lambda == pytest.approx(1.2, abs=0.01)


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
])
def test_config_rejects_non_positive_counts(tmp_path, key, value):
    cfg = ExperimentConfig(n=8, p=5, R=Fraction(1, 4), R_f=Fraction(3, 4), **{key: value})
    with pytest.raises(ValueError, match=f"{key} must be at least 1"):
        cfg.resolve()
    out = tmp_path / "x.csv"
    cfgpath = write_config(tmp_path, **{key: value})
    assert main(["simulate", "--config", cfgpath, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("key, raw", [
    ("resample_lattice", '"false"'),  # a quoted string is not a boolean
    ("allow_below_threshold", "1"),
    ("trials", "2.7"),
    ("seed", "1.5"),
    ("threads", "true"),
    ("trials", "inf"),
])
def test_config_refuses_loose_values(tmp_path, key, raw):
    path = write_config(tmp_path, **{key: raw})
    with pytest.raises(ValueError, match=f"config key {key!r} needs"):
        config_from_mapping(load_config_file(path))
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "x.csv")]) == 2


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


def test_thread_count_does_not_change_bytes(tmp_path):
    base = ExperimentConfig(n=8, p=5, R=Fraction(1, 4), R_f=Fraction(3, 4),
                            snr_db_grid=[8.0], trials=40, master_seed=11)
    import dataclasses

    eight = dataclasses.replace(base, threads=8)
    a, b = tmp_path / "t1.csv", tmp_path / "t8.csv"
    emit_csv(run_monte_carlo(base), str(a))
    emit_csv(run_monte_carlo(eight), str(b))
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("resample, pairs", [(True, 4), (False, 1)])
def test_runner_builds_and_encodes_each_trial_once(monkeypatch, resample, pairs):
    # The sent point does not depend on the SNR, so a trial's pair and
    # encoding are shared by every grid point.
    from lda_lab import codec

    calls = {"build_pair": 0, "encode": 0}

    def counted(name):
        original = getattr(codec, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(codec, name, wrapper)

    counted("build_pair")
    counted("encode")
    cfg = ExperimentConfig(n=8, p=5, R=Fraction(1, 4), R_f=Fraction(3, 4),
                           snr_db_grid=[6.0, 9.0, 12.0], trials=4, master_seed=3,
                           resample_lattice=resample)
    results = run_monte_carlo(cfg)
    assert [r.trials for r in results] == [4, 4, 4]
    assert calls == {"build_pair": pairs, "encode": 4}


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
                           quantizer_budget=10_000)  # 7^8 codewords >> budget
    from lda_lab.expander import BudgetExceededError

    with pytest.raises(BudgetExceededError):
        run_monte_carlo(cfg)


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


def test_cli_simulate_refusal_exit_code(tmp_path):
    cfgpath = write_config(tmp_path, Rf='"2/3"', n=12, p=7, R='"1/4"',
                           quantizer_budget=10_000)
    assert main(["simulate", "--config", cfgpath, "--out", str(tmp_path / "x.csv")]) == 2
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
    assert "refused: channel output has non-finite samples" in capsys.readouterr().err


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


def test_verify_mindist_clean_profile():
    # Variable degree 4 at this delta_p: low-weight words are absent.
    report = verify_mindist(codes=5, n=24, p=11, R_f=Fraction(1, 2),
                            delta_p=8, w_max=3, master_seed=1)
    assert report.passed


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


def test_gamma_rate_guard():
    # (R_f - R) log2 p = 0.5 * log2(5) ~ 1.161 bits/dim; at 8 dB capacity
    # is ~1.37 so gamma = 0.5 forbids the rate while gamma = 0.9 allows it.
    base = dict(n=8, p=5, R=Fraction(1, 4), R_f=Fraction(3, 4), snr_db_grid=[8.0])
    with pytest.raises(ValueError):
        ExperimentConfig(**base, gamma=0.5).resolve()
    ExperimentConfig(**base, gamma=0.9).resolve()


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