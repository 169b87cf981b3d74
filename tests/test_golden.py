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
vectors' 64-bit slots, the JSON `express` of a weight-10 composition, and
malformed literals.
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


def test_verify_all_weight_7_digest(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "qsymm.cli", "verify-all", "--max-weight", "7", "--json", "-"],
        cwd=tmp_path,
        env=_env(),
        capture_output=True,
    )
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout).hexdigest() == VERIFY_ALL_7_SHA256
