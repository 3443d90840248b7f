"""Golden digests: the SHA-256 of every pinned output, stored.

Each case runs commands through ``cli.main`` at seeds 1-3 and compares the
digest of each output file and of each verifier's stdout with the stored
hex.  A change that moves a byte on purpose updates the digest here and
says in CHANGES.md which output changed and why.  The sum-product run is
its own case: its outputs hang on FFT floats.

The digests hold for Python 3.11.7 and numpy 2.4.6; another numpy or
BLAS may round the searches' and the decoder's floats differently.
"""

from __future__ import annotations

import contextlib
import hashlib
import io

from lda_lab.cli import main

ENVIRONMENT = "Python 3.11.7, numpy 2.4.6"
SEEDS = (1, 2, 3)
FAMILY = {"n": 12, "p": 7, "R": '"1/4"', "Rf": '"1/2"', "snr_db": "[4.0, 8.0, 12.0]", "trials": 30}
SETUPS = {
    "lda-exact": {"kind": '"lda"', "delta_p": 4, "allow_below_threshold": "true",
                  "decoder": '"exact"', "resample_lattice": "true"},
    "lda-bp": {"kind": '"lda"', "delta_p": 4, "allow_below_threshold": "true",
               "decoder": '"bp"', "resample_lattice": "false"},
    "dense-exact": {"kind": '"dense"', "decoder": '"exact"', "resample_lattice": "true"},
}
VERIFIERS = {
    "verify-expansion": ["--graphs", "3"],
    "verify-mindist": ["--codes", "10"],
    "verify-counts": ["--cases", "20"],
    "verify-norm": ["--count", "20"],
}
MESSAGE = "1,2,3"

GOLDEN = {
    'encode dense-exact seed 1 exit 0': 'bc57a3f0686c675222af5eed69ec40f1fc9727d5775954332757d0df754efdcd',
    'encode dense-exact seed 2 exit 0': 'c41a48c18c75f190c0d4347a515ed744940e127cea7724a06025a0f786f27857',
    'encode dense-exact seed 3 exit 0': '122e77eb61dc12f1d0c5bf6fef7e3c781d39a66ad3834f674685b5a6e739317c',
    'encode lda-exact seed 1 exit 0': '435dd88c1e85ab437bf9a1100888aba8f0982d1369cd09a8be81b2d645785307',
    'encode lda-exact seed 2 exit 0': '04fe7d636696d43805c56d45a8ab38a9a01b68db6aaa9b89ae9ea6b94e3c6a1b',
    'encode lda-exact seed 3 exit 0': '59019a9f9fd1e23ca8d8f5ccaa033c4754192ba336512f8da233b0bc0bb02b1f',
    'gen dense-exact seed 1': '3b081ea5f6bde1deacff4a1699ce86260cf7fcb22057cc394ab620a88ab8889c',
    'gen dense-exact seed 2': '50fa0faee23042d2293c6f9323e4f8ffe4d0ca0a02fa539c5839fe2b76c34e68',
    'gen dense-exact seed 3': 'a166343e3e739c2f7163e58f077c99c1ad8fc1772ea2b754df4aeee49d2c5d49',
    'gen lda-exact seed 1': '192ca7af04830a47a3b55463ffc6f709abde68834d5bce688428a86d3903e4f8',
    'gen lda-exact seed 2': 'd18f4e7804e123b172e4b96e719728ab60d3603c9c9fdcf703da7e34f7e3d834',
    'gen lda-exact seed 3': 'afe72ee049cffb31bcc3939c19e8caab47cda5600ff2bb1aaec8c94ac239b26e',
    'simulate dense-exact seed 1 .csv': '16b723dbea87edd1ccca2e71b46abaddfd5b178ff67b57d2a54de90b35f2853a',
    'simulate dense-exact seed 1 .ser.dat': 'aab88fe5416ef63254a381ff59bcca70556d37fc9bcb725b9903a56e2162e3a7',
    'simulate dense-exact seed 1 .wer.dat': 'aab88fe5416ef63254a381ff59bcca70556d37fc9bcb725b9903a56e2162e3a7',
    'simulate dense-exact seed 2 .csv': '59bd6602ddff947950f58390e5c2aedfb339f3ee4851eb3f8ad9da0acbc08afc',
    'simulate dense-exact seed 2 .ser.dat': '50d4c75024cc5434c4f75282b68727a8be16c4fa398b7807e6d3e7a1e0b17fbb',
    'simulate dense-exact seed 2 .wer.dat': 'f450e079b2ec959458899390f69d669c0442286a203e2e3a89ca1b2aa4fb03e2',
    'simulate dense-exact seed 3 .csv': '918d1353d9cef2b5641e9e4c73e53d6f1341ed8eff527e4acc75a67ce249fff7',
    'simulate dense-exact seed 3 .ser.dat': '5453ad72622c2777e68f7a6e2dfcb5224232ddcc032ea574b181271f152c0b40',
    'simulate dense-exact seed 3 .wer.dat': '01e2a27867b9f37a7b8622a50d2979bc0ec551d3b443e57dd6159e5b05c2ec30',
    'simulate lda-bp seed 1 .csv': 'b3c618ff86b7a7654d84d336d2dcdc2e10f08eeb9faf0043be6e00722b39479b',
    'simulate lda-bp seed 1 .ser.dat': '8381d863268b51d904a63747635866c8f6e04bc985d0edd6cc32dd5b9650d909',
    'simulate lda-bp seed 1 .wer.dat': '5f5dbeab2d5a5bd68b4e007787987463b7ea354ca57b275c41845c718ad8294f',
    'simulate lda-bp seed 2 .csv': 'fa55379530e92b7d986ce7f4f77ed2d06873dd84d0e42c78ec2c77c0c8b9547b',
    'simulate lda-bp seed 2 .ser.dat': '991bd28e5dec7fb285f811ee7a8285dcabc6928142914a38ca2fb8f06fbd5bef',
    'simulate lda-bp seed 2 .wer.dat': '833bd75e5cf1b94508d39bb1355c9e1cf379c703b70db771d580e260e672488c',
    'simulate lda-bp seed 3 .csv': '54ac41965db1f0c9cdd88a479d71a485f60814272c67ab2873e6b1e21b29ecfb',
    'simulate lda-bp seed 3 .ser.dat': '62e129b18112d6fada1afc65eda4372f3cce8e0eed6f60c8cdf1053fa00792b1',
    'simulate lda-bp seed 3 .wer.dat': 'd5642a80aea6c44c6e9b33676caf8bb9672a71beab3238d55621fd89035a531c',
    'simulate lda-exact seed 1 .csv': '72859280789596cd83b7df0ed9868b72bf0d8f8c8bc2e9212eddd274cc555113',
    'simulate lda-exact seed 1 .ser.dat': '3fe863d9a497bae30b4c8eb9829670e81e3fb4b00dfa69674164b4117dca721f',
    'simulate lda-exact seed 1 .wer.dat': 'e3f42fdc4decd2cc358e42ae3630ff128268a99d1d69c65f3161ca5a4b2b16cd',
    'simulate lda-exact seed 2 .csv': 'd11f9a74b2118eb93098ca77b795340885a4d5b4f23f545ad18a57ac905d462b',
    'simulate lda-exact seed 2 .ser.dat': '02c2acfdd764d1daf37ce64d8816a535d202ebb9e998abbb1945fe197507fc41',
    'simulate lda-exact seed 2 .wer.dat': 'bc62d0603ff6d47cbdc907046e6b198dbfb87dfbe3603fdbb799dc4b6042a63e',
    'simulate lda-exact seed 3 .csv': 'bef6b437a63524d26318966cba1bef66f0ac360162d5c07f3d93161920e77642',
    'simulate lda-exact seed 3 .ser.dat': 'c1dba6084ef8a4359e08f780cd74393ee5fb3f5d218dd3a02c507dda8a37bb68',
    'simulate lda-exact seed 3 .wer.dat': '7cf2f456d44bbde441e6091adc5690944b04c51174c3a9dfdf5ae7148365a76d',
    'verify-counts seed 1 exit 0': 'e8e7bcaa55fbfe2bbbae4ce631d04529608ceaf9037faebeff8eb1cea2933ee3',
    'verify-counts seed 2 exit 0': 'e8e7bcaa55fbfe2bbbae4ce631d04529608ceaf9037faebeff8eb1cea2933ee3',
    'verify-counts seed 3 exit 0': 'e8e7bcaa55fbfe2bbbae4ce631d04529608ceaf9037faebeff8eb1cea2933ee3',
    'verify-expansion seed 1 exit 0': '294c09ce3d0ff53ed1faee95de88f66f8866761dab8e94a3f5c62890517dbfd9',
    'verify-expansion seed 2 exit 0': '294c09ce3d0ff53ed1faee95de88f66f8866761dab8e94a3f5c62890517dbfd9',
    'verify-expansion seed 3 exit 0': '294c09ce3d0ff53ed1faee95de88f66f8866761dab8e94a3f5c62890517dbfd9',
    'verify-mindist seed 1 exit 1': 'a8fd55a80d5f208340fcf4dfb9b8bd2b41816cc4401f27d3696c6fe483dbddb9',
    'verify-mindist seed 2 exit 1': '2e22f17b29ff5b22b959e996a0bb0694aa0725adeef465f2974349b8a7a40ac2',
    'verify-mindist seed 3 exit 1': '1e8704f19b06a4deabc7385052153b4c0d7dde63f1dd6c34a47b3d3035e00a49',
    'verify-norm seed 1 exit 0': 'c3688b31e0eba8bf06f82856246c224d8d53d9d70e6de57432497f24344d7ee4',
    'verify-norm seed 2 exit 0': '7d41eced71f7f6c4bdf262a27af5237357b792d264238c495d2e07ad454dbc21',
    'verify-norm seed 3 exit 0': '7d41eced71f7f6c4bdf262a27af5237357b792d264238c495d2e07ad454dbc21',
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def _config(tmp_path, setup: str, seed: int) -> str:
    path = tmp_path / f"{setup}-{seed}.toml"
    keys = dict(FAMILY, seed=seed, **SETUPS[setup])
    path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()), encoding="utf-8")
    return str(path)


def _simulate_digests(tmp_path, setup: str) -> dict[str, str]:
    digests = {}
    for seed in SEEDS:
        out = tmp_path / f"{setup}-{seed}.csv"
        assert _run(["simulate", "--config", _config(tmp_path, setup, seed), "--out", str(out)])[0] == 0
        for suffix in (".csv", ".ser.dat", ".wer.dat"):
            path = out.with_name(out.stem + suffix)
            digests[f"simulate {setup} seed {seed} {suffix}"] = _sha(path.read_bytes())
    return digests


def _assert_golden(got: dict[str, str]) -> None:
    moved = sorted(name for name, digest in got.items() if GOLDEN.get(name) != digest)
    assert not moved, (f"{len(moved)} outputs moved from their stored digests (which hold for "
                       f"{ENVIRONMENT}): " + "; ".join(moved))


def test_simulate_exact_outputs_match_their_golden_digests(tmp_path):
    _assert_golden({**_simulate_digests(tmp_path, "lda-exact"),
                    **_simulate_digests(tmp_path, "dense-exact")})


def test_simulate_bp_outputs_match_their_golden_digests(tmp_path):
    _assert_golden(_simulate_digests(tmp_path, "lda-bp"))


def test_gen_encode_and_verifier_outputs_match_their_golden_digests(tmp_path):
    got = {}
    for seed in SEEDS:
        for setup in ("lda-exact", "dense-exact"):
            pair = tmp_path / f"{setup}-{seed}.pair"
            assert _run(["gen", "--config", _config(tmp_path, setup, seed), "--out", str(pair)])[0] == 0
            got[f"gen {setup} seed {seed}"] = _sha(pair.read_bytes())
            code, stdout = _run(["encode", "--pair", str(pair), "--message", MESSAGE])
            got[f"encode {setup} seed {seed} exit {code}"] = _sha(stdout.encode())
        for name, flags in VERIFIERS.items():
            code, stdout = _run([name, *flags, "--seed", str(seed)])
            got[f"{name} seed {seed} exit {code}"] = _sha(stdout.encode())
    _assert_golden(got)

