"""Tiny CLI runs whose artifacts must keep their bytes.

Each case runs ``awsde run`` at seed 3 and compares the SHA-256 of every
artifact it writes with a committed digest.  ``manifest.json`` is left out,
because it records the wall time.  A refactor that means to keep every output
bit keeps these digests; a change that means to move bits updates them and
says which and why.  The digests were taken with numpy 2.4 on x86-64 Linux;
floating-point library differences on other platforms can move the
transcendental-function results they depend on.
"""

import hashlib
import json

import pytest

from awsde.cli import main

CASES = {
    # more than 256 paths, so each sweep runs two blocks
    "fig_disc": (
        ["fig_disc", "--steps", "32", "--paths", "300"],
        {"aw_estimates.csv": "668bf77f9f06df43c617f1c9914ce0e2d875efa76dfed2e91932ecbc26e98ce1"},
    ),
    "fig_cir": (
        ["fig_cir", "--steps", "32", "--paths", "300"],
        {
            "aw_estimates_diffusion.csv":
                "a73be167d4d7d2d13bb77764817cb68d8aae10b64fc0830e9c74696656327023",
            "aw_estimates_level.csv":
                "2108a328f9c4002b7b45aaeccad850a373c2ba6a428d01bbd5d60009fb96da52",
            "aw_estimates_speed.csv":
                "0d455795feaedc1b4085f49991b93d139b99b0b30eaa5fedb03aff6ee97301f1",
        },
    ),
    "rates_sign_drift": (
        ["rates", "--model", "sign_drift", "--scheme", "tiem-mono", "--steps", "1024",
         "--paths", "16"],
        {"rate_curve.csv": "fae266d3885f1ffaf3b2a8ec6657dee813413ef630b2e6c9aa4f213364f556c2"},
    ),
    "rates_cubic": (
        ["rates", "--model", "cubic", "--scheme", "tiem-mono", "--steps", "1024",
         "--paths", "16"],
        {"rate_curve.csv": "fd3b4cccf9c1f55a379ed1cdc8044238ee309574f95f9b5a8c8e7dca53e4a555"},
    ),
    # 300 paths, so the rate curve's reductions join two blocks
    "rates_cubic_iem_blocks": (
        ["rates", "--model", "cubic", "--scheme", "iem", "--steps", "256", "--paths", "300"],
        {"rate_curve.csv": "e874c6680353217b8c0b2ff6d0695b106ff1e1224c3d401aa44ed2d2e6a12792"},
    ),
    "counterexamples": (
        ["counterexamples"],
        {"counterexamples.json":
             "0dd06cf8b36ca24c7511a597e7dbfa11a36a3a5b0a6400ca3510a653576dc169"},
    ),
    "stopping": (
        ["stopping", "--paths", "5"],
        {"stopping.json": "ff41628ce8279fcfa985d432bdca4ca69e3aafcb1516d1c346ff71ab838493ab"},
    ),
    "transform_dump": (
        ["transform_dump", "--dump-paths", "3", "--steps", "64"],
        {
            "paths.csv": "d18b7ebf0374333d25e5238da692ee33d8c489ad215fff5e1ed349ce654b04f7",
            "transform.csv": "6262c81bca427fff525512ad5374a82a25e3b608da7597819c6614fbc50f4a1d",
        },
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_artifacts_keep_their_digests(case, tmp_path, capsys):
    argv, expected = CASES[case]
    assert main(["run", *argv, "--seed", "3", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    outputs = json.loads((tmp_path / "manifest.json").read_text())["outputs"]
    assert sorted(outputs) == sorted(expected)
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in outputs}
    assert digests == expected
