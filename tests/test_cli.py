"""Command-line interface: output formats, exit codes, determinism."""

import json
import os
import stat
import threading

import pytest

from qsymm import cli
from qsymm.cli import run, verify_all
from qsymm.generators import certificate_to_json_obj, freeness_certificate
from qsymm.lambda_ops import clear_memo


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestProduct:
    def test_text(self, capsys):
        code, out, _ = invoke(capsys, "product", "[1]", "[2]")
        assert code == 0
        assert out.strip() == "[2,1] + [1,2] + [3]"

    def test_element_arguments(self, capsys):
        code, out, _ = invoke(capsys, "product", "2*[1,1] + [2]", "[]")
        assert code == 0
        assert out.strip() == "2*[1,1] + [2]"

    def test_json(self, capsys):
        code, out, _ = invoke(capsys, "product", "--format", "json", "[1]", "[1]")
        assert code == 0
        assert json.loads(out) == [
            {"composition": [1, 1], "coeff": "2"},
            {"composition": [2], "coeff": "1"},
        ]

    def test_malformed_literal_is_usage_error(self, capsys):
        code, _, err = invoke(capsys, "product", "[1", "[2]")
        assert code == 2
        assert "position" in err

    def test_non_ascii_digit_is_usage_error(self, capsys):
        code, _, err = invoke(capsys, "product", "[\u0661,2]", "[]")
        assert code == 2
        assert "position" in err


class TestUnaryCommands:
    def test_lambda(self, capsys):
        code, out, _ = invoke(capsys, "lambda", "-n", "2", "[1]")
        assert code == 0
        assert out.strip() == "[1,1]"

    def test_lambda_ignores_the_retired_memo_variable(self, capsys, monkeypatch):
        # QSYMM_MAX_MEMO once set the lambda table's size; nothing reads it
        monkeypatch.setenv("QSYMM_MAX_MEMO", "abc")
        clear_memo()
        code, out, err = invoke(capsys, "lambda", "-n", "2", "[1]")
        assert (code, out.strip(), err) == (0, "[1,1]", "")

    def test_frobenius(self, capsys):
        code, out, _ = invoke(capsys, "frobenius", "-n", "2", "[1,2]")
        assert code == 0
        assert out.strip() == "[2,4]"

    def test_express(self, capsys):
        code, out, _ = invoke(capsys, "express", "[2,1]")
        assert code == 0
        assert out.strip() == "-e1([1,2]) - 3*e3([1]) + e1([1])*e2([1])"

    def test_expand_inverts_express(self, capsys):
        code, out, _ = invoke(capsys, "express", "[2,1]")
        text = out.strip()
        code, out, _ = invoke(capsys, "expand", text)
        assert code == 0
        assert out.strip() == "[2,1]"

    def test_plethysm(self, capsys):
        code, out, _ = invoke(capsys, "plethysm-e-p", "-n", "2", "-m", "2")
        assert code == 0
        assert out.strip() == "e2^2 - 2*e1*e3 + 2*e4"

    def test_exp_check(self, capsys):
        code, out, _ = invoke(capsys, "exp-check", "-N", "3", "[1,2]")
        assert code == 0
        assert "pass" in out

    def test_bad_index_is_usage_error(self, capsys):
        code, _, err = invoke(capsys, "frobenius", "-n", "0", "[1]")
        assert code == 2

    # The library or the argument parser rejects these, so the handlers
    # repeat no check of their own.
    @pytest.mark.parametrize(
        "argv, last_line",
        [
            (("express", "[]"), "error: express needs a nonempty composition"),
            (("expand", "e0([1])"), "error: lambda index must be >= 1 and an int"),
            (("plethysm-e-p", "-n", "0", "-m", "2"), "error: indices must be >= 1"),
            (("plethysm-e-p", "-n", "2", "-m", "0"), "error: indices must be >= 1"),
            (("certify", "--weight", "0"), "qsymm certify: error: argument --weight: must be >= 1, got 0"),
        ],
        ids=["express-empty", "expand-e0", "plethysm-n0", "plethysm-m0", "certify-weight0"],
    )
    def test_rejected_arguments(self, capsys, argv, last_line):
        code, out, err = invoke(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.endswith("\n")
        lines = err.splitlines()
        assert lines[-1] == last_line
        if last_line.startswith("error:"):
            assert len(lines) == 1


class TestCertify:
    def test_text_summary(self, capsys):
        code, out, _ = invoke(capsys, "certify", "--weight", "4")
        assert code == 0
        assert "weight 4" in out
        assert "determinant" in out

    def test_json_file(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        code, _, _ = invoke(capsys, "certify", "--weight", "4", "--json", str(path))
        assert code == 0
        obj = json.loads(path.read_text())
        assert obj["weight"] == 4
        assert obj["size"] == 8
        assert obj["determinant"] in ("1", "-1")
        assert len(obj["matrix"]) == 64

    def test_product_generators(self, capsys):
        code, out, _ = invoke(
            capsys, "certify", "--weight", "3", "--generators", "product"
        )
        assert code == 0

    def test_bad_weight(self, capsys):
        code, _, _ = invoke(capsys, "certify", "--weight", "0")
        assert code == 2


class TestOracle:
    def test_runs_clean(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = invoke(
            capsys, "oracle", "--max-weight", "3", "--vars", "4", "--json", str(path)
        )
        assert code == 0
        assert "0 failed" in out
        report = json.loads(path.read_text())
        assert all(c["status"] == "pass" for c in report)

    def test_vars_precondition(self, capsys):
        code, _, err = invoke(capsys, "oracle", "--max-weight", "3", "--vars", "2")
        assert code == 2


class TestVerifyAll:
    def test_weight_four(self, capsys, tmp_path):
        path = tmp_path / "verify.json"
        code, out, _ = invoke(
            capsys, "verify-all", "--max-weight", "4", "--json", str(path)
        )
        assert code == 0
        assert "FAILED" not in out
        report = json.loads(path.read_text())
        assert all(c["status"] == "pass" for c in report)
        suites = {c["identity"].split("/")[0] for c in report}
        assert {
            "oracle",
            "express-round-trip",
            "lambda-leading-term",
            "plethysm-compat",
            "exp-identity",
            "certificate",
            "certificate-product-form",
        } <= suites

    def test_weight_six(self, capsys):
        code, out, _ = invoke(capsys, "verify-all", "--max-weight", "6")
        assert code == 0
        assert "FAILED" not in out

    def test_zero_weight_usage_error(self, capsys):
        code, _, _ = invoke(capsys, "verify-all", "--max-weight", "0")
        assert code == 2

    def test_verify_all_function_rejects_zero(self):
        with pytest.raises(ValueError):
            verify_all(0)


class TestOutputPath:
    @pytest.mark.parametrize(
        "argv", [("certify", "--weight", "2", "--json"), ("product", "[1]", "[2]", "--output")]
    )
    def test_missing_directory_is_usage_error(self, capsys, tmp_path, argv):
        path = tmp_path / "missing" / "x.json"
        code, _, err = invoke(capsys, *argv, str(path))
        assert code == 2
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1
        assert not path.exists()

    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_json_leaves_the_path_as_it_was(self, capsys, tmp_path, monkeypatch, existing):
        class Truncated(list):
            # the encoder runs out of memory after the first item
            def __iter__(self):
                yield self[0]
                raise MemoryError

        monkeypatch.setattr(cli, "certificate_to_json_obj", lambda cert: Truncated([1, 2]))
        path = tmp_path / "x.json"
        if existing:
            path.write_text("old\n")
        code, _, err = invoke(capsys, "certify", "--weight", "2", "--json", str(path))
        assert code == 2
        assert err == "error: input too large (MemoryError)\n"
        # no partial file beside it either
        assert list(tmp_path.iterdir()) == ([path] if existing else [])
        if existing:
            assert path.read_text() == "old\n"

    def test_symlink_target_is_written(self, capsys, tmp_path):
        real = tmp_path / "real.txt"
        real.write_text("old\n")
        link = tmp_path / "link.txt"
        link.symlink_to(real)
        assert invoke(capsys, "product", "[1]", "[2]", "--output", str(link))[0] == 0
        assert link.is_symlink()
        assert real.read_text() == "[2,1] + [1,2] + [3]\n"

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_pipe_is_written_in_place(self, capsys, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        read = []
        reader = threading.Thread(target=lambda: read.append(fifo.read_text()), daemon=True)
        reader.start()
        assert invoke(capsys, "product", "[1]", "[2]", "--output", str(fifo))[0] == 0
        reader.join(timeout=10)
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert read == ["[2,1] + [1,2] + [3]\n"]


class TestDeterminism:
    def test_byte_identical_json(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        invoke(capsys, "certify", "--weight", "5", "--json", str(a))
        invoke(capsys, "certify", "--weight", "5", "--json", str(b))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("target", ["-", "file"])
    @pytest.mark.parametrize("command", ["certify", "verify-all"])
    def test_streamed_json_matches_dumps(self, capsys, tmp_path, command, target):
        # JSON is written chunk by chunk; the bytes are those of one
        # json.dumps(..., indent=2) and a newline
        if command == "certify":
            argv = ("certify", "--weight", "5")
            obj = certificate_to_json_obj(freeness_certificate(5))
        else:
            argv = ("verify-all", "--max-weight", "3")
            obj = [c.to_json_obj() for c in verify_all(3)]
        expected = json.dumps(obj, indent=2) + "\n"
        path = tmp_path / "out.json"
        code, out, _ = invoke(capsys, *argv, "--json", "-" if target == "-" else str(path))
        assert code == 0
        if target == "-":
            # the summary follows the JSON on standard output
            assert out == expected + invoke(capsys, *argv)[1]
        else:
            assert path.read_bytes() == expected.encode("ascii")

    def test_output_file_matches_stdout(self, capsys, tmp_path):
        path = tmp_path / "el.json"
        _, out, _ = invoke(capsys, "lambda", "-n", "3", "[1,2]", "--format", "json")
        invoke(capsys, "lambda", "-n", "3", "[1,2]", "--format", "json", "--output", str(path))
        assert path.read_text() == out

    def test_round_trip_corpus(self, capsys):
        # format(parse(s)) is canonical and stable for composition and
        # element literals
        from qsymm.elements import format_element, parse_element

        corpus = ["[1,2]", "2*[1,1] + [2]", "0", "[]", "1/2*[3] - [1,1,1]"]
        for s in corpus:
            canonical = format_element(parse_element(s))
            assert format_element(parse_element(canonical)) == canonical


class TestHelp:
    def test_no_args_is_usage_error(self, capsys):
        assert run([]) == 2

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0

    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 2


class TestResourceLimits:
    def test_deep_composition_is_usage_error(self, capsys):
        ones = "[" + ",".join(["1"] * 1500) + "]"
        code, _, err = invoke(capsys, "express", ones)
        assert code == 2
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1
