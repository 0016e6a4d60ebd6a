"""Byte pins for every subcommand's output.

Each case runs one subcommand on a fixed input with --no-timestamp and
compares the sha256 of every file it writes, summary.json included,
with the digest recorded when the case was added. A change that alters
a single byte of any table or summary fails here.
"""
import hashlib
import os

import pytest

from fdmkit.cli import main

TONES = ('gen:{"kind":"tone_mix","n":256,"sample_rate_hz":100,"seed":4,'
         '"params":{"freqs":[6,19.5,31],"amps":[1,0.5,0.25],"sigma":0.05}}')
CHANNELS = ('gen:{"kind":"tone_mix","n":512,"sample_rate_hz":128,"seed":2,'
            '"params":{"freqs":[4,8,16,32],"sigma":0.2,'
            '"channels":[[0,1,2,3],[1,2],[0,3]]}}')
CHIRP = 'gen:{"kind":"linear_chirp","n":300,"sample_rate_hz":75}'
NOISE = 'gen:{"kind":"white_gaussian","n":200,"sample_rate_hz":50,"seed":11}'
# two channels on a clock that starts at 2.5 s; every value is exact
RECORD = "t,a,b\n" + "".join(
    f"{2.5 + i / 8!r},{((7 * i) % 13 - 6) / 4!r},{((5 * i) % 11 - 5) / 8!r}\n"
    for i in range(96))

CASES = {
    "decompose": (["decompose", "--input", TONES, "--scan", "htl"], {
        "decomposition.csv":
            "42b16bc095c10ca45758912fad19d008971a4d0b464d99b01c89a7d4601ce963",
        "summary.json":
            "a7fa2633bbb038ef3ee472fb0fb589f7f61156aec8c133f4469d06d2e1f67acd",
    }),
    "decompose_json": (["decompose", "--input", TONES, "--format", "json"], {
        "decomposition.json":
            "73173ec47952945063d7c10d19118c428365db4d467d8dc8c206ff77113b2913",
        "summary.json":
            "338fa70a743630a6683226ca508cd54c24c8a8ec2b26958e6d7b075d3dc93707",
    }),
    "mfdm": (["mfdm", "--input", CHANNELS, "--levels", "4"], {
        "mfdm_ch1.csv":
            "eb7f941da5619726375d06718ce6919edf642b8e0cb154d4354922901b919a28",
        "mfdm_ch2.csv":
            "723b4afdc959eca15557f773ee5d130c5906d00d3fd851f97b6e8307e7b23a1b",
        "mfdm_ch3.csv":
            "d8179f6e4a280c3a123fe6be0fbd7d2b778bfbea99f04e35a8ae87a6f87e1ae8",
        "summary.json":
            "7ac3988a73ccb2954eede098548503a1d2648466a3bb309e73f22f1174e40df8",
    }),
    "mfdm_json": (["mfdm", "--input", CHANNELS, "--levels", "4",
                   "--format", "json"], {
        "mfdm_ch1.json":
            "f118ec2ed2f0a53203df6494b5ccf0aa6bcfb1714889da3c0cbace218b2931bd",
        "mfdm_ch2.json":
            "fec1c39ecd16ddc76ada9b6362001f91ddbabc5000b7c6fa9b54f88b1a267ed7",
        "mfdm_ch3.json":
            "16b1b2233f7b3844d474e132f69acf2e5465137e2244e1c50c0270c856601d68",
        "summary.json":
            "7ac3988a73ccb2954eede098548503a1d2648466a3bb309e73f22f1174e40df8",
    }),
    "tfe": (["tfe", "--input", CHIRP, "--freq-bin", "0.75"], {
        "tfe_points.csv":
            "2a6663a236acd0df71188c7845c6d6bd90de596377361b19cda172a73270baf0",
        "tfe_grid.csv":
            "9663c22c7fcbff57a31aa296964b59ec3ef723572b06e2977ac5715ec2ef60ef",
        "summary.json":
            "b74175f18cf9222a317897c300a986c34869f16e9947a40083551325990d3f2f",
    }),
    # the grid's rows are mostly runs of zeros, so this pins the JSON
    # route's zero runs as well as the time header
    "tfe_json": (["tfe", "--input", CHIRP, "--freq-bin", "0.75",
                  "--format", "json"], {
        "tfe_points.json":
            "6a3dd4e42bf13c1ca4bc874cfaddbfa2873bcaa5000da20ac88ff7af16495091",
        "tfe_grid.json":
            "a27c79ab80e2800b85d20acb40081076c23913310f62c37ebb88dbe368826c32",
        "summary.json":
            "b74175f18cf9222a317897c300a986c34869f16e9947a40083551325990d3f2f",
    }),
    "marginal": (["marginal", "--input", TONES, "--freq-bin", "0.5"], {
        "marginal.csv":
            "e31fddf07df76be8af9ac532cfc2befffc0c644b21c44225c42b0c4d8e89332c",
        "summary.json":
            "a8298a3c5b1fe78bf2d0cc9d184414108c7ab413a316a02aa7626de5c7b90868",
    }),
    "energy": (["energy", "--input", CHIRP, "--search", "first"], {
        "energy.csv":
            "ac3c68aadcf7308513ae8d7cfd30917f46432a5b1ec912e219e242a48ae57e73",
        "summary.json":
            "acdcb7f95b572fdc01fe18e0271f36ec48b4e849ff13982f1536d8c484b371f8",
    }),
    "generate": (["generate", "--input", NOISE], {
        "signal.csv":
            "5c1de28531ecb3b168ff20f833a4441b8580577ff8cae10eb1b17d3c2ca9ba23",
        "summary.json":
            "c7c2382687097ad1d66d2f1b7e4dfb48d1bf331040c1e2d7a8648efa7df5296e",
    }),
    "generate_csv": (["generate", "--input", "{record}", "--fs", "8"], {
        "signal.csv":
            "8d87a86dd85e2b3271a46969dec32216399e7d3a4d88a6cb6099c4b423db2d23",
        "summary.json":
            "58414c36b67699ebef6b304297c3d23dc3d5fd861b29987c81e354ecefc3d637",
    }),
}


def digests(out):
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in sorted(os.listdir(out))}


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_bytes_are_pinned(tmp_path, case):
    argv, want = CASES[case]
    record = tmp_path / "record.csv"
    record.write_text(RECORD)
    argv = [a.replace("{record}", str(record)) for a in argv]
    out = tmp_path / case
    assert main(argv + ["--out", str(out), "--no-timestamp"]) == 0
    assert digests(out) == want
