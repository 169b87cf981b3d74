"""Byte-for-byte CLI output against a saved corpus.

Each `golden/<name>.json` records one command line: its argv, exit code,
stdout, stderr, and the text of every file it wrote (named relative to the
working directory). The corpus covers the README examples, certificates for
weights 1-6 in both generator families, `verify-all --max-weight 4 --json`
(which holds the oracle at four variables), text and JSON forms with
rational and negative coefficients, products of 9-term elements on both
sides of the per-pair/trie route choice, products on both sides of the
weight-256 bound of the per-pair route and far above it, mixed-weight
rational products of weight 12 and 13 (either side of the per-pair route's
code tables), an expansion whose coefficients overflow the packed weight
vectors' 64-bit slots, expansions of a weight-12 generator polynomial
(`expand-packed-w12`, the packed route) and of a weight-13 one
(`expand-dict-w13`, the dict route), the JSON `express` of a weight-10
composition, and malformed literals. Digests pin `verify-all --max-weight
7 --json`, the certificates of weights 9 and 10 and the product-family
certificates of weights 9, 10 and 11.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = GOLDEN.parent.parent / "src"
CASES = sorted(GOLDEN.glob("*.json"))


def _env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("QSYMM_")}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def test_corpus_present():
    assert len(CASES) >= 30


@pytest.mark.parametrize("case", CASES, ids=[p.stem for p in CASES])
def test_cli_output_matches_corpus(case, tmp_path):
    rec = json.loads(case.read_text())
    proc = subprocess.run(
        [sys.executable, "-m", "qsymm.cli", *rec["argv"]],
        cwd=tmp_path,
        env=_env(),
        capture_output=True,
        text=True,
    )
    assert proc.stdout == rec["stdout"]
    assert proc.stderr == rec["stderr"]
    assert proc.returncode == rec["exit"]
    for name, text in rec["files"].items():
        assert (tmp_path / name).read_text() == text


# `verify-all --max-weight 7 --json -`, the window the benchmark's `verify`
# workload runs: 1231 checks and 3.69 MB of JSON, pinned by digest.
VERIFY_ALL_7_SHA256 = "eca71d293f41f1523478c8ed67451be8eb68af91cb3eeeeb4896f738c704b666"


def _stdout_digest(argv, cwd):
    proc = subprocess.run([sys.executable, "-m", "qsymm.cli", *argv], cwd=cwd, env=_env(), capture_output=True)
    assert proc.returncode == 0
    return hashlib.sha256(proc.stdout).hexdigest()


def test_verify_all_weight_7_digest(tmp_path):
    assert _stdout_digest(["verify-all", "--max-weight", "7", "--json", "-"], tmp_path) == VERIFY_ALL_7_SHA256


# `certify --weight W --json -` above the corpus's weights 1-6: weight 9 is
# the first at which the fewest-nonzeros pivot rule left a Bareiss
# remainder, and weight 10 is the benchmark's largest certificate.
CERTIFY_SHA256 = {
    9: "49e14d5819503baff19eb4ab82de1539bd4204f4b0d85cf2e7326bfc043876d3",
    10: "b57f3bbaa2accce4bcc277dce11556e190486d7000c23181bea1cb11e780fb01",
}


@pytest.mark.parametrize("w", sorted(CERTIFY_SHA256))
def test_certify_digest(w, tmp_path):
    assert _stdout_digest(["certify", "--weight", str(w), "--json", "-"], tmp_path) == CERTIFY_SHA256[w]


# `certify --weight W --generators product --json -`: the product family
# above the corpus's weights 1-6, at the weights of the digests above and
# at weight 11. Weights 10 and 11 were recorded while the product columns
# were still expanded factor by factor and eliminated on their own, before
# they were read as M_elem * T.
CERTIFY_PRODUCT_SHA256 = {
    9: "14c621e57d1b4c2a35c1ea80806721ec802c557f27216e580bba4163b06718bd",
    10: "e55df27b1ce458c6d753341e6732031e367849abe0c83ef275e465f7d9953a69",
    11: "028e2292a58bc1421bfd85008b5d4d0a491d5274338263856b3551fe4107d09b",
}


def test_certify_product_digest(tmp_path):
    for w, digest in sorted(CERTIFY_PRODUCT_SHA256.items()):
        argv = ["certify", "--weight", str(w), "--generators", "product", "--json", "-"]
        assert _stdout_digest(argv, tmp_path) == digest, f"weight {w}"
